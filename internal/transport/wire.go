package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"repro/internal/relation"
	"repro/internal/simnet"
)

// Wire format (all integers varint unless noted):
//
//	message := kind:byte exchange:str producerIdx consumerIdx epoch
//	           startSeq checkpoint replay:byte
//	           ntuples tuple* nbuckets bucket* nexcept except*
//	           hasCtrl:byte [ctrl]
//	ctrl    := op:byte requestID replyTo:str replyService:str
//	           nweights float64*  nbucketMap int32*  nbuckets int32*
//	           nseqs int64*  epoch ok:byte err:str routed est
//	           ndiscarded (key:int nseqs seq*)*
//	           peer peerNode:str peerService:str
//	str     := len bytes
//
// Tuples use the relation codec. The format is self-contained; the TCP
// transport frames each message with a 4-byte big-endian length prefix.
//
// Decoding copies no string value out of its input: the string values of a
// decoded message's tuples are substrings of the bytes they arrived in, which
// are never written again. UnmarshalMessage decodes one private copy of its
// input, so its caller may reuse the input at once. A TCP connection reads
// each frame into an append-only receive slab of 64 KiB chunks and decodes it
// in place (see receiver), so a retained tuple string keeps its whole chunk
// alive rather than a copy of its own message — the trade stored-scan blocks
// make.

// ErrWire is wrapped by unmarshalling errors.
var ErrWire = errors.New("transport: corrupt wire message")

// maxWirePrealloc caps slice capacities derived from wire-announced counts.
// The decoder's count() already bounds counts by the remaining input, but a
// large frame can still announce element counts whose slice would dwarf the
// payload (e.g. 8-byte int64s announced one-per-input-byte); growing by
// append from a capped capacity keeps allocation proportional to the bytes
// actually decoded.
const maxWirePrealloc = 4096

// preallocN bounds a wire-announced count for use as an initial capacity.
func preallocN(n int) int {
	if n > maxWirePrealloc {
		return maxWirePrealloc
	}
	return n
}

// MarshalMessage encodes a message into a fresh buffer.
func MarshalMessage(m *Message) []byte {
	return AppendMessage(make([]byte, 0, 256+32*len(m.Tuples)), m)
}

// AppendMessage appends the encoding of m to dst and returns the extended
// slice. Combined with relation.GetEncodeBuffer/PutEncodeBuffer this lets
// senders encode whole messages without allocating.
func AppendMessage(dst []byte, m *Message) []byte {
	b := dst
	b = append(b, byte(m.Kind))
	b = appendString(b, m.Exchange)
	b = binary.AppendVarint(b, int64(m.ProducerIdx))
	b = binary.AppendVarint(b, int64(m.ConsumerIdx))
	b = binary.AppendVarint(b, int64(m.Epoch))
	b = binary.AppendVarint(b, m.StartSeq)
	b = binary.AppendVarint(b, m.Checkpoint)
	b = appendBool(b, m.Replay)
	b = binary.AppendUvarint(b, uint64(len(m.Tuples)))
	for _, t := range m.Tuples {
		b = relation.AppendTuple(b, t)
	}
	b = binary.AppendUvarint(b, uint64(len(m.Buckets)))
	for _, bk := range m.Buckets {
		b = binary.AppendVarint(b, int64(bk))
	}
	b = binary.AppendUvarint(b, uint64(len(m.Except)))
	for _, s := range m.Except {
		b = binary.AppendVarint(b, s)
	}
	b = appendString(b, m.Query)
	if m.Mon != nil {
		b = appendBool(b, true)
		mo := m.Mon
		b = appendBool(b, mo.IsM2)
		b = appendString(b, mo.Fragment)
		b = binary.AppendVarint(b, int64(mo.Instance))
		b = appendString(b, string(mo.Node))
		b = binary.AppendUvarint(b, math.Float64bits(mo.CostMs))
		b = binary.AppendUvarint(b, math.Float64bits(mo.WaitMs))
		b = binary.AppendUvarint(b, math.Float64bits(mo.Selectivity))
		b = binary.AppendVarint(b, mo.Produced)
		b = appendString(b, mo.ConsumerFragment)
		b = binary.AppendVarint(b, int64(mo.ConsumerInstance))
		b = appendString(b, string(mo.ConsumerNode))
		b = binary.AppendUvarint(b, math.Float64bits(mo.SendCostMs))
		b = binary.AppendVarint(b, int64(mo.TupleCount))
	} else {
		b = appendBool(b, false)
	}
	if m.Ctrl == nil {
		return appendBool(b, false)
	}
	b = appendBool(b, true)
	c := m.Ctrl
	b = append(b, byte(c.Op))
	b = binary.AppendUvarint(b, c.RequestID)
	b = appendString(b, string(c.ReplyTo))
	b = appendString(b, c.ReplyService)
	b = binary.AppendUvarint(b, uint64(len(c.Weights)))
	for _, w := range c.Weights {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(w))
	}
	b = binary.AppendUvarint(b, uint64(len(c.BucketMap)))
	for _, o := range c.BucketMap {
		b = binary.AppendVarint(b, int64(o))
	}
	b = binary.AppendUvarint(b, uint64(len(c.Buckets)))
	for _, o := range c.Buckets {
		b = binary.AppendVarint(b, int64(o))
	}
	b = binary.AppendUvarint(b, uint64(len(c.Seqs)))
	for _, s := range c.Seqs {
		b = binary.AppendVarint(b, s)
	}
	b = binary.AppendVarint(b, int64(c.Epoch))
	b = appendBool(b, c.OK)
	b = appendString(b, c.Err)
	b = binary.AppendVarint(b, c.Routed)
	b = binary.AppendVarint(b, c.Est)
	b = binary.AppendUvarint(b, uint64(len(c.DiscardedSeqs)))
	for k, seqs := range c.DiscardedSeqs {
		b = appendString(b, k)
		b = binary.AppendUvarint(b, uint64(len(seqs)))
		for _, s := range seqs {
			b = binary.AppendVarint(b, s)
		}
	}
	b = binary.AppendVarint(b, int64(c.Peer))
	b = appendString(b, string(c.PeerNode))
	return appendString(b, c.PeerService)
}

// UnmarshalMessage decodes a message produced by MarshalMessage.
func UnmarshalMessage(b []byte) (*Message, error) {
	return UnmarshalMessageArena(nil, b)
}

// UnmarshalMessageArena decodes like UnmarshalMessage but carves tuple
// storage from the caller's arena (nil uses one private to the call). It
// decodes one private copy of b, so the caller may reuse b at once: every
// string of the result, tuple values and names alike, is a substring of that
// copy, and retaining any one keeps the whole copy alive.
func UnmarshalMessageArena(a *relation.Arena, b []byte) (*Message, error) {
	cp := slices.Clone(b)
	return decodeMessage(nil, a, frameString(cp), cp)
}

// decodeMessage is the one message decoder. b is the encoded message and a
// suffix of the frame base, a string over the same bytes that are never
// written again: decoded strings are substrings of base, and a decode error
// abandons them with the frame. A one-shot decode (rx nil) allocates its
// Message and tuple headers; a TCP receiver carves them from its chunks and
// interns names (see receiver). a carves the tuples' Values (nil: an arena
// private to the call).
func decodeMessage(rx *receiver, a *relation.Arena, base string, b []byte) (*Message, error) {
	d := &decoder{b: b, base: base, rx: rx, arena: a}
	var m *Message
	if rx != nil {
		m = rx.message()
	} else {
		m = &Message{}
	}
	m.Kind = Kind(d.byte())
	m.Exchange = d.name()
	m.ProducerIdx = int(d.varint())
	m.ConsumerIdx = int(d.varint())
	m.Epoch = int(d.varint())
	m.StartSeq = d.varint()
	m.Checkpoint = d.varint()
	m.Replay = d.bool()
	if n := d.count(); n > 0 {
		m.Tuples = d.tuples(n)
	}
	if n := d.count(); n > 0 {
		m.Buckets = make([]int32, 0, preallocN(n))
		for i := 0; i < n; i++ {
			m.Buckets = append(m.Buckets, int32(d.varint()))
		}
	}
	if n := d.count(); n > 0 {
		m.Except = make([]int64, 0, preallocN(n))
		for i := 0; i < n; i++ {
			m.Except = append(m.Except, d.varint())
		}
	}
	m.Query = d.str()
	if d.bool() {
		mo := &Monitor{}
		mo.IsM2 = d.bool()
		mo.Fragment = d.name()
		mo.Instance = int(d.varint())
		mo.Node = simnet.NodeID(d.name())
		mo.CostMs = math.Float64frombits(d.uvarint())
		mo.WaitMs = math.Float64frombits(d.uvarint())
		mo.Selectivity = math.Float64frombits(d.uvarint())
		mo.Produced = d.varint()
		mo.ConsumerFragment = d.name()
		mo.ConsumerInstance = int(d.varint())
		mo.ConsumerNode = simnet.NodeID(d.name())
		mo.SendCostMs = math.Float64frombits(d.uvarint())
		mo.TupleCount = int(d.varint())
		m.Mon = mo
	}
	if d.bool() {
		c := &Ctrl{}
		c.Op = CtrlOp(d.byte())
		c.RequestID = d.uvarint()
		c.ReplyTo = simnet.NodeID(d.name())
		c.ReplyService = d.name()
		if n := d.count(); n > 0 {
			c.Weights = make([]float64, 0, preallocN(n))
			for i := 0; i < n; i++ {
				c.Weights = append(c.Weights, d.float64())
			}
		}
		if n := d.count(); n > 0 {
			c.BucketMap = make([]int32, 0, preallocN(n))
			for i := 0; i < n; i++ {
				c.BucketMap = append(c.BucketMap, int32(d.varint()))
			}
		}
		if n := d.count(); n > 0 {
			c.Buckets = make([]int32, 0, preallocN(n))
			for i := 0; i < n; i++ {
				c.Buckets = append(c.Buckets, int32(d.varint()))
			}
		}
		if n := d.count(); n > 0 {
			c.Seqs = make([]int64, 0, preallocN(n))
			for i := 0; i < n; i++ {
				c.Seqs = append(c.Seqs, d.varint())
			}
		}
		c.Epoch = int(d.varint())
		c.OK = d.bool()
		c.Err = d.str()
		c.Routed = d.varint()
		c.Est = d.varint()
		if n := d.count(); n > 0 {
			c.DiscardedSeqs = make(map[string][]int64, preallocN(n))
			for i := 0; i < n && d.err == nil; i++ {
				k := d.str()
				cnt := d.count()
				seqs := make([]int64, 0, preallocN(cnt))
				for j := 0; j < cnt; j++ {
					seqs = append(seqs, d.varint())
				}
				c.DiscardedSeqs[k] = seqs
			}
		}
		c.Peer = int(d.varint())
		c.PeerNode = simnet.NodeID(d.name())
		c.PeerService = d.name()
		m.Ctrl = c
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrWire, len(d.b))
	}
	if !validKind(m.Kind) {
		return nil, fmt.Errorf("%w: bad kind %d", ErrWire, m.Kind)
	}
	if len(m.Buckets) != 0 && len(m.Buckets) != len(m.Tuples) {
		return nil, fmt.Errorf("%w: %d buckets for %d tuples", ErrWire, len(m.Buckets), len(m.Tuples))
	}
	return m, nil
}

// frameString aliases a frame as a string without copying, as
// engine.blockString does for stored blocks. Safe only because a frame's
// bytes are never written once it has been read or copied: the decoder
// reads them through the string for values and through the slice for
// headers, and nothing mutates them.
func frameString(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

func validKind(k Kind) bool { return k >= KindData && k <= KindMonitor }

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// decoder reads the wire format with sticky errors. b is the unread suffix
// of base; rx and arena are decodeMessage's.
type decoder struct {
	b     []byte
	base  string
	rx    *receiver
	arena *relation.Arena
	err   error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated", ErrWire)
	}
}

func (d *decoder) byte() byte {
	if d.err != nil || len(d.b) == 0 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) bool() bool { return d.byte() != 0 }

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// count reads a length, bounding it by the remaining input to stop
// adversarial allocations.
func (d *decoder) count() int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64(len(d.b))+1 {
		d.fail()
		return 0
	}
	return int(v)
}

// tuples decodes the n > 0 tuples at the front of the input with the relation
// codec's fused block decoder. Their string values are substrings of base, so
// they share the frame's bytes instead of copying them.
func (d *decoder) tuples(n int) []relation.Tuple {
	if d.arena == nil {
		d.arena = new(relation.Arena)
	}
	// The batch starts at the capped capacity and grows only after it has
	// been filled, so allocation follows the bytes decoded, not the count
	// announced.
	var hdrs []relation.Tuple
	if d.rx != nil {
		hdrs = d.rx.headers(preallocN(n))
	} else {
		hdrs = make([]relation.Tuple, 0, preallocN(n))
	}
	batch := relation.Batch{Tuples: hdrs}
	rest, left := d.b, uint64(n)
	for left > 0 {
		var err error
		if rest, left, _, err = relation.DecodeTuplesShared(d.arena, d.base, rest, left, &batch, nil); err != nil {
			d.err = fmt.Errorf("%w: tuple %d: %v", ErrWire, uint64(n)-left, err)
			return nil
		}
		batch.Tuples = slices.Grow(batch.Tuples, preallocN(int(left)))
	}
	d.b = rest
	return batch.Tuples
}

func (d *decoder) float64() float64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// bytes reads a length-prefixed byte string, aliasing the input.
func (d *decoder) bytes() []byte {
	n := d.count()
	if d.err != nil || len(d.b) < n {
		d.fail()
		return nil
	}
	s := d.b[:n:n]
	d.b = d.b[n:]
	return s
}

// str reads a free-form string: a substring of base in a one-shot decode,
// a copy on a TCP receiver, so that a retained text (a deploy's SQL, an
// error) pins no slab chunk.
func (d *decoder) str() string {
	b := d.bytes()
	if d.rx != nil {
		return string(b)
	}
	off := len(d.base) - len(d.b) - len(b)
	return d.base[off : off+len(b)]
}

// name reads an identifier (an exchange, service, node or fragment name):
// a TCP receiver interns it, everything else reads it as str does.
func (d *decoder) name() string {
	if d.rx == nil {
		return d.str()
	}
	return d.rx.intern(d.bytes())
}
