// Package storage is the temporary-run layer under memory-governed
// execution: a pluggable Backend hands out append-only runs of encoded
// tuples that spilling operators (grace-hash join and aggregate partitions,
// external-sort runs) write sequentially and read back a block at a time
// through OpenBlocks, the one read path stored tables use too. Runs reuse
// the hardened wire tuple codec, framed in length-prefixed blocks, so a
// spilled partition round-trips byte-exactly through the same code path the
// transport already fuzzes.
//
// The package also provides Budget, the per-query memory accountant the
// engine threads through ExecContext: operators reserve bytes as they buffer
// state and spill partitions to a Backend when the budget is breached.
package storage

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"repro/internal/qerr"
	"repro/internal/relation"
)

// RunWriter appends tuples to one named run. Writers are single-goroutine
// objects; Close seals the run for reading.
type RunWriter interface {
	// Append encodes one tuple into the run's open block and keeps no
	// reference to it: the caller may reuse the tuple, Values and all, once
	// Append returns.
	Append(t relation.Tuple) error
	// AppendAll appends a batch of tuples.
	AppendAll(ts []relation.Tuple) error
	// Tuples reports how many tuples have been appended.
	Tuples() int64
	// Bytes reports the encoded size written (including buffered bytes).
	Bytes() int64
	// Close flushes buffered blocks and seals the run.
	Close() error
}

// Backend creates, opens and removes named temporary runs. Implementations
// are safe for concurrent use by multiple queries; individual writers are
// not. Run names use '/' as a hierarchy separator
// ("q7.f1-i0/join-p5-build"), which is what prefix cleanup keys on.
type Backend interface {
	// Create makes a new empty run, failing if the name already exists.
	Create(name string) (RunWriter, error)
	// OpenBlocks returns a block-granular reader over a sealed run — the
	// one read path, for stored scans and spill reloads alike. The whole
	// frame chain is validated up front, so a truncated or corrupt run fails
	// here with a typed storage error rather than mid-scan.
	OpenBlocks(name string) (BlockReader, error)
	// Remove deletes a run (idempotent: removing an absent run is not an
	// error).
	Remove(name string) error
	// RemoveMatching deletes every run whose name starts with prefix and
	// reports how many were removed — the per-query cleanup safety net.
	RemoveMatching(prefix string) (int, error)
	// List returns the sorted names of all existing runs.
	List() ([]string, error)
	// Close releases the backend and everything in it.
	Close() error
}

// BlockReader gives random access to the sealed, length-prefixed blocks of
// one run — the batch-at-a-time read path. A BlockReader is safe for
// concurrent ReadBlock calls from multiple goroutines (morsel workers share
// one reader over disjoint block ranges), and Close is idempotent.
type BlockReader interface {
	// Blocks reports how many framed blocks the run holds.
	Blocks() int
	// BlockSize reports the payload size in bytes of block i — known before
	// the read, so a scan can reserve the bytes against a Budget first.
	BlockSize(i int) int
	// ReadBlock returns the payload of block i (length prefix stripped).
	// buf is reused when it has the capacity; the returned slice is only
	// valid until the next ReadBlock with the same buf.
	ReadBlock(i int, buf []byte) ([]byte, error)
	// Close releases the reader; safe to call more than once, including
	// while ReadBlock calls are still completing on other goroutines'
	// already-opened handles.
	Close() error
}

// corruptRun classifies a damaged block frame as a typed storage error so
// callers can branch on qerr.KindStorage instead of string-matching raw io
// errors.
func corruptRun(name, format string, args ...any) error {
	return qerr.Storage("run "+name, fmt.Errorf(format, args...))
}

// blockTarget is the run writers' flush threshold: the open block is
// sealed into one length-prefixed frame once the Tuple.ByteSize of the
// tuples encoded into it passes it.
const blockTarget = 64 << 10

// blockHead is the room the open block keeps in front of its tuples for the
// frame header, len:uint32le ++ uvarint(count), whose count is known only at
// the flush.
const blockHead = 4 + binary.MaxVarintLen64

// blockSink is where a blockWriter's frames go: put receives each flushed
// frame and must write or copy it before returning, since the writer reuses
// its buffer for the next block; seal runs once, at Close. Each backend's
// run embeds its blockWriter and is that writer's sink, so creating a run
// allocates the run and nothing beside it.
type blockSink interface {
	put(block []byte) error
	seal() error
}

// blockWriter implements the shared run-writer framing over a blockSink:
// each flush emits one block of the form len:uint32le ++ AppendTuples(batch).
// Append encodes a tuple into the open block at once, so the writer holds
// bytes, never the caller's tuples.
type blockWriter struct {
	sink   blockSink
	buf    []byte // the open block: blockHead bytes of room, then tuples
	count  uint64 // tuples in the open block
	pend   int    // Tuple.ByteSize sum of the open block, the flush measure
	tuples int64
	bytes  int64
	closed bool
}

// Append implements RunWriter.
func (w *blockWriter) Append(t relation.Tuple) error {
	if w.closed {
		return fmt.Errorf("storage: append to closed run")
	}
	if w.buf == nil {
		w.buf = append(relation.GetEncodeBuffer(), make([]byte, blockHead)...)
	}
	w.buf = relation.AppendTuple(w.buf, t)
	w.count++
	w.pend += t.ByteSize()
	w.tuples++
	if w.pend >= blockTarget {
		return w.flush()
	}
	return nil
}

// AppendAll implements RunWriter.
func (w *blockWriter) AppendAll(ts []relation.Tuple) error {
	for _, t := range ts {
		if err := w.Append(t); err != nil {
			return err
		}
	}
	return nil
}

// Tuples implements RunWriter.
func (w *blockWriter) Tuples() int64 { return w.tuples }

// Bytes implements RunWriter.
func (w *blockWriter) Bytes() int64 { return w.bytes + int64(w.pend) }

// flush writes the open block's header right-aligned into its room and
// hands the frame to the sink; the buffer stays for the next block.
func (w *blockWriter) flush() error {
	if w.count == 0 {
		return nil
	}
	var cnt [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(cnt[:], w.count)
	start := blockHead - 4 - k
	copy(w.buf[start+4:], cnt[:k])
	binary.LittleEndian.PutUint32(w.buf[start:], uint32(len(w.buf)-start-4))
	err := w.sink.put(w.buf[start:])
	w.bytes += int64(w.pend)
	w.buf = w.buf[:blockHead]
	w.count, w.pend = 0, 0
	return err
}

// Close implements RunWriter: it flushes the open block, returns its
// buffer to the encode pool and seals the run.
func (w *blockWriter) Close() error {
	if w.closed {
		return nil
	}
	err := w.flush()
	w.closed = true
	relation.PutEncodeBuffer(w.buf)
	w.buf = nil
	if serr := w.sink.seal(); err == nil {
		err = serr
	}
	return err
}

// listMatching filters sorted names by prefix (shared by both backends).
func listMatching(names []string, prefix string) []string {
	out := names[:0:0]
	for _, n := range names {
		if strings.HasPrefix(n, prefix) {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}
