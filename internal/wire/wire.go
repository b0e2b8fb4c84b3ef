// Package wire defines the datagram protocol spoken by HEAP nodes: the
// three-phase dissemination messages of Algorithm 1 ([Propose], [Request],
// [Serve]), the capability-aggregation messages of Algorithm 2, and the
// auxiliary messages used by the optional peer-sampling and push-pull
// averaging services.
//
// Every message knows its exact encoded size (WireSize), which the simulated
// network uses for upload-bandwidth accounting, and marshals to a compact
// big-endian binary form, which the real UDP runtime puts on the wire. The
// two are guaranteed to agree (property-tested).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// NodeID identifies a node in the system. In the simulator it is a dense
// index; over real UDP it is assigned by the bootstrap directory.
type NodeID int32

// NodeNone is the zero-value "no node" sentinel.
const NodeNone NodeID = -1

// PacketID identifies one stream packet (source or FEC parity) within its
// stream, monotonically in publish order. Packet ids are dense per stream;
// the (StreamID, PacketID) pair is globally unique.
type PacketID uint64

// StreamID identifies one dissemination stream. A process historically
// carried exactly one stream; multi-source deployments run several
// concurrent streams over one membership and aggregation layer. Stream 0 is
// the default stream: its messages encode exactly as the legacy single-stream
// wire format, and legacy encodings decode as stream 0.
type StreamID uint32

// streamFlag marks, in the item-count field of Propose/Request/Serve, that a
// 4-byte stream id follows the count. Legacy encodings (stream 0) never set
// it, so pre-multi-stream bytes decode unchanged; the flag caps item counts
// at 32767, far above any protocol batch.
const streamFlag = 0x8000

// Streamed is implemented by dissemination messages that belong to one
// stream (Propose, Request, Serve); the simulator uses it for per-stream
// bandwidth accounting.
type Streamed interface {
	StreamOf() StreamID
}

// UDPOverheadBytes is the per-datagram UDP/IPv4 header overhead charged by
// the bandwidth model on top of WireSize.
const UDPOverheadBytes = 28

// Kind enumerates message types. Values are part of the wire format.
type Kind uint8

// Message kinds. Explicit values: these bytes go on the wire.
const (
	KindPropose      Kind = 1 // phase 1: push event ids
	KindRequest      Kind = 2 // phase 2: pull wanted ids
	KindServe        Kind = 3 // phase 3: push payloads
	KindAggregate    Kind = 4 // capability aggregation (Algorithm 2)
	KindShuffleReq   Kind = 5 // peer sampling: shuffle request
	KindShuffleReply Kind = 6 // peer sampling: shuffle reply
	KindAvgPush      Kind = 7 // push-pull averaging: initiator half
	KindAvgReply     Kind = 8 // push-pull averaging: responder half
)

// String returns the human-readable kind name.
func (k Kind) String() string {
	switch k {
	case KindPropose:
		return "Propose"
	case KindRequest:
		return "Request"
	case KindServe:
		return "Serve"
	case KindAggregate:
		return "Aggregate"
	case KindShuffleReq:
		return "ShuffleReq"
	case KindShuffleReply:
		return "ShuffleReply"
	case KindAvgPush:
		return "AvgPush"
	case KindAvgReply:
		return "AvgReply"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Codec errors.
var (
	ErrShortBuffer   = errors.New("wire: buffer too short")
	ErrUnknownKind   = errors.New("wire: unknown message kind")
	ErrTrailingBytes = errors.New("wire: trailing bytes after message")
	ErrTooManyItems  = errors.New("wire: item count exceeds encoding limit")
	// ErrZeroStream rejects an explicit stream-id field holding 0: stream 0
	// always encodes in the legacy field-free form, so an explicit zero is
	// non-canonical and would break the encode→decode→encode identity.
	ErrZeroStream = errors.New("wire: explicit stream id 0 (non-canonical)")
)

// Message is implemented by every protocol message.
//
// A message is owned by whoever built it. Sending lends it to the runtime
// for the length of the Send call only: the UDP runtime encodes it there and
// the simulator copies it into a shard's [Pool], so a sender may reuse one
// message for every send. Only a Serve's payload bytes are shared past the
// call, and nobody modifies those. A received message is the runtime's and
// is valid only until Receive returns.
type Message interface {
	Kind() Kind
	// WireSize returns the exact number of bytes Marshal appends,
	// excluding UDP/IP overhead (see UDPOverheadBytes).
	WireSize() int
	// MarshalBinary appends the encoded message to dst and returns the
	// extended slice.
	MarshalBinary(dst []byte) []byte
}

// Event is one stream packet in flight inside a [Serve] message.
//
// Stream is carried once per Serve message, not per event: MarshalBinary
// writes the enclosing message's Stream, and Unmarshal stamps it onto every
// decoded event, so all events of one Serve share one stream by construction.
type Event struct {
	ID      PacketID
	Stream  StreamID
	Stamp   int64  // publish time, nanoseconds since the run epoch
	Payload []byte // packet content; len must fit in uint16
}

// eventWireSize is the fixed per-event header: id(8) + stamp(8) + len(2).
const eventWireSize = 8 + 8 + 2

// WireSize returns the encoded size of the event.
func (e Event) WireSize() int { return eventWireSize + len(e.Payload) }

// streamWireSize is the encoded size of a non-zero stream id (zero encodes
// as nothing: the legacy format).
func streamWireSize(s StreamID) int {
	if s == 0 {
		return 0
	}
	return 4
}

// Propose carries the identifiers a node offers to serve (Alg. 1 phase 1).
type Propose struct {
	Stream StreamID
	IDs    []PacketID
}

// Kind implements Message.
func (*Propose) Kind() Kind { return KindPropose }

// StreamOf implements Streamed.
func (m *Propose) StreamOf() StreamID { return m.Stream }

// WireSize implements Message.
func (m *Propose) WireSize() int { return 1 + 2 + streamWireSize(m.Stream) + 8*len(m.IDs) }

// Request asks the proposing peer for the listed ids (Alg. 1 phase 2).
type Request struct {
	Stream StreamID
	IDs    []PacketID
}

// Kind implements Message.
func (*Request) Kind() Kind { return KindRequest }

// StreamOf implements Streamed.
func (m *Request) StreamOf() StreamID { return m.Stream }

// WireSize implements Message.
func (m *Request) WireSize() int { return 1 + 2 + streamWireSize(m.Stream) + 8*len(m.IDs) }

// Serve delivers the requested payloads (Alg. 1 phase 3). All events belong
// to Stream (see Event).
type Serve struct {
	Stream StreamID
	Events []Event
}

// Kind implements Message.
func (*Serve) Kind() Kind { return KindServe }

// StreamOf implements Streamed.
func (m *Serve) StreamOf() StreamID { return m.Stream }

// WireSize implements Message.
func (m *Serve) WireSize() int {
	n := 1 + 2 + streamWireSize(m.Stream)
	for _, e := range m.Events {
		n += e.WireSize()
	}
	return n
}

// CapEntry is one node's advertised upload capability, aged like a Cyclon
// descriptor: AgeMs is the time elapsed since the value was (re)measured at
// its owner, so receivers need no synchronized clocks.
type CapEntry struct {
	Node    NodeID
	CapKbps uint32 // advertised upload capability, kilobits per second
	AgeMs   uint32 // staleness at send time, milliseconds
}

// capEntryWireSize is node(4) + cap(4) + age(4).
const capEntryWireSize = 12

// Aggregate carries the freshest capability entries known to the sender
// (Algorithm 2, aggregation phase).
type Aggregate struct {
	Entries []CapEntry
}

// Kind implements Message.
func (*Aggregate) Kind() Kind { return KindAggregate }

// WireSize implements Message.
func (m *Aggregate) WireSize() int { return 1 + 1 + capEntryWireSize*len(m.Entries) }

// PeerDescriptor is a peer-sampling view entry.
type PeerDescriptor struct {
	Node NodeID
	Age  uint16 // shuffle rounds since the descriptor was created
}

const peerDescriptorWireSize = 4 + 2

// ShuffleReq initiates a Cyclon-style view shuffle (peer-sampling service).
type ShuffleReq struct {
	Descriptors []PeerDescriptor
}

// Kind implements Message.
func (*ShuffleReq) Kind() Kind { return KindShuffleReq }

// WireSize implements Message.
func (m *ShuffleReq) WireSize() int { return 1 + 1 + peerDescriptorWireSize*len(m.Descriptors) }

// ShuffleReply answers a ShuffleReq with a sample of the responder's view.
type ShuffleReply struct {
	Descriptors []PeerDescriptor
}

// Kind implements Message.
func (*ShuffleReply) Kind() Kind { return KindShuffleReply }

// WireSize implements Message.
func (m *ShuffleReply) WireSize() int { return 1 + 1 + peerDescriptorWireSize*len(m.Descriptors) }

// AvgPush is the initiator half of a Jelasity-style push-pull averaging
// exchange (used for system-size estimation).
type AvgPush struct {
	Value  float64
	Weight float64
}

// Kind implements Message.
func (*AvgPush) Kind() Kind { return KindAvgPush }

// WireSize implements Message.
func (m *AvgPush) WireSize() int { return 1 + 8 + 8 }

// AvgReply is the responder half of a push-pull averaging exchange.
type AvgReply struct {
	Value  float64
	Weight float64
}

// Kind implements Message.
func (*AvgReply) Kind() Kind { return KindAvgReply }

// WireSize implements Message.
func (m *AvgReply) WireSize() int { return 1 + 8 + 8 }

// Compile-time interface checks.
var (
	_ Streamed = (*Propose)(nil)
	_ Streamed = (*Request)(nil)
	_ Streamed = (*Serve)(nil)

	_ Message = (*Propose)(nil)
	_ Message = (*Request)(nil)
	_ Message = (*Serve)(nil)
	_ Message = (*Aggregate)(nil)
	_ Message = (*ShuffleReq)(nil)
	_ Message = (*ShuffleReply)(nil)
	_ Message = (*AvgPush)(nil)
	_ Message = (*AvgReply)(nil)
)

// maxCountItems is the largest item count the flagged header can carry.
// The protocol never approaches it: dissemination batches are bounded by
// the stream rate times the gossip period (tens of ids), and a maximal
// count would not fit a UDP datagram anyway.
const maxCountItems = streamFlag - 1

// appendCountStream encodes the shared item-count header of the
// dissemination messages: the count with the streamFlag bit set and a 4-byte
// stream id when the stream is non-zero, the bare legacy count otherwise.
// Counts past maxCountItems would collide with the flag bit and decode as
// garbage, so they panic — building such a message is a protocol bug
// (ErrTooManyItems is its decode-side counterpart), never a wire input.
func appendCountStream(dst []byte, count int, stream StreamID) []byte {
	if count > maxCountItems {
		panic(fmt.Sprintf("wire: %d items exceed the %d encoding limit", count, maxCountItems))
	}
	if stream == 0 {
		return binary.BigEndian.AppendUint16(dst, uint16(count))
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(count)|streamFlag)
	return binary.BigEndian.AppendUint32(dst, uint32(stream))
}

// MarshalBinary implements Message.
func (m *Propose) MarshalBinary(dst []byte) []byte {
	dst = append(dst, byte(KindPropose))
	dst = appendCountStream(dst, len(m.IDs), m.Stream)
	return appendIDs(dst, m.IDs)
}

// MarshalBinary implements Message.
func (m *Request) MarshalBinary(dst []byte) []byte {
	dst = append(dst, byte(KindRequest))
	dst = appendCountStream(dst, len(m.IDs), m.Stream)
	return appendIDs(dst, m.IDs)
}

// MarshalBinary implements Message.
func (m *Serve) MarshalBinary(dst []byte) []byte {
	dst = append(dst, byte(KindServe))
	dst = appendCountStream(dst, len(m.Events), m.Stream)
	for _, e := range m.Events {
		dst = binary.BigEndian.AppendUint64(dst, uint64(e.ID))
		dst = binary.BigEndian.AppendUint64(dst, uint64(e.Stamp))
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(e.Payload)))
		dst = append(dst, e.Payload...)
	}
	return dst
}

// MarshalBinary implements Message.
func (m *Aggregate) MarshalBinary(dst []byte) []byte {
	dst = append(dst, byte(KindAggregate))
	dst = append(dst, byte(len(m.Entries)))
	for _, e := range m.Entries {
		dst = binary.BigEndian.AppendUint32(dst, uint32(e.Node))
		dst = binary.BigEndian.AppendUint32(dst, e.CapKbps)
		dst = binary.BigEndian.AppendUint32(dst, e.AgeMs)
	}
	return dst
}

// MarshalBinary implements Message.
func (m *ShuffleReq) MarshalBinary(dst []byte) []byte {
	dst = append(dst, byte(KindShuffleReq))
	return appendDescriptors(dst, m.Descriptors)
}

// MarshalBinary implements Message.
func (m *ShuffleReply) MarshalBinary(dst []byte) []byte {
	dst = append(dst, byte(KindShuffleReply))
	return appendDescriptors(dst, m.Descriptors)
}

// MarshalBinary implements Message.
func (m *AvgPush) MarshalBinary(dst []byte) []byte {
	dst = append(dst, byte(KindAvgPush))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(m.Value))
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(m.Weight))
}

// MarshalBinary implements Message.
func (m *AvgReply) MarshalBinary(dst []byte) []byte {
	dst = append(dst, byte(KindAvgReply))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(m.Value))
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(m.Weight))
}

func appendIDs(dst []byte, ids []PacketID) []byte {
	for _, id := range ids {
		dst = binary.BigEndian.AppendUint64(dst, uint64(id))
	}
	return dst
}

func appendDescriptors(dst []byte, ds []PeerDescriptor) []byte {
	dst = append(dst, byte(len(ds)))
	for _, d := range ds {
		dst = binary.BigEndian.AppendUint32(dst, uint32(d.Node))
		dst = binary.BigEndian.AppendUint16(dst, d.Age)
	}
	return dst
}

// Marshal encodes m into a freshly allocated buffer of exactly WireSize
// bytes.
func Marshal(m Message) []byte {
	return m.MarshalBinary(make([]byte, 0, m.WireSize()))
}

// Unmarshal decodes one message from buf into freshly allocated storage. The
// whole buffer must be consumed; trailing bytes are an error (datagram
// transports deliver exactly one message per datagram).
func Unmarshal(buf []byte) (Message, error) { return new(Decoder).Unmarshal(buf) }

// Decoder decodes messages into storage it owns: one reusable message of each
// kind, whose slices keep their capacity from one decode to the next, so a
// warm decoder allocates nothing. The message Unmarshal returns, and every
// slice header in it, is valid until the decoder's next Unmarshal. Serve
// payloads alias the input buffer, never the decoder, and live as long as
// that buffer does. The zero value is ready to use.
type Decoder struct {
	propose      Propose
	request      Request
	serve        Serve
	aggregate    Aggregate
	shuffleReq   ShuffleReq
	shuffleReply ShuffleReply
	avgPush      AvgPush
	avgReply     AvgReply
}

// Unmarshal decodes one message from buf, like the package's Unmarshal, into
// the decoder's message of that kind.
func (d *Decoder) Unmarshal(buf []byte) (Message, error) {
	if len(buf) < 1 {
		return nil, ErrShortBuffer
	}
	kind := Kind(buf[0])
	r := reader{buf: buf[1:]}
	var m Message
	var err error
	switch kind {
	case KindPropose:
		m, err = &d.propose, r.streamIDs(&d.propose.Stream, &d.propose.IDs)
	case KindRequest:
		m, err = &d.request, r.streamIDs(&d.request.Stream, &d.request.IDs)
	case KindServe:
		m, err = &d.serve, r.streamEvents(&d.serve.Stream, &d.serve.Events)
	case KindAggregate:
		m, err = &d.aggregate, r.capEntries(&d.aggregate.Entries)
	case KindShuffleReq:
		m, err = &d.shuffleReq, r.descriptors(&d.shuffleReq.Descriptors)
	case KindShuffleReply:
		m, err = &d.shuffleReply, r.descriptors(&d.shuffleReply.Descriptors)
	case KindAvgPush:
		m, err = &d.avgPush, r.twoFloats(&d.avgPush.Value, &d.avgPush.Weight)
	case KindAvgReply:
		m, err = &d.avgReply, r.twoFloats(&d.avgReply.Value, &d.avgReply.Weight)
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownKind, kind)
	}
	if err != nil {
		return nil, fmt.Errorf("wire: decoding %s: %w", kind, err)
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("%w: %d bytes after %s", ErrTrailingBytes, len(r.buf), kind)
	}
	return m, nil
}

// Pool copies messages into storage it recycles: a free list of message
// structs per kind, and free lists of slices filed by power-of-two capacity
// class, one set per element type (ids, events, capability entries,
// descriptors). A copy of n items takes a slice from class ⌈log₂ n⌉, so its
// capacity is less than twice what it carries whatever longer messages of its
// kind went through the pool before it, and a warm pool allocates nothing. A
// copy shares nothing with its original except a Serve's payload bytes, which
// are immutable and may be kept by anyone. The simulator keeps one per shard
// for the messages it holds in flight. The zero value is ready to use; a Pool
// is not safe for concurrent use.
type Pool struct {
	proposes       []*Propose
	requests       []*Request
	serves         []*Serve
	aggregates     []*Aggregate
	shuffleReqs    []*ShuffleReq
	shuffleReplies []*ShuffleReply
	avgPushes      []*AvgPush
	avgReplies     []*AvgReply

	ids         sizeClasses[PacketID] // Propose and Request
	events      sizeClasses[Event]
	entries     sizeClasses[CapEntry]
	descriptors sizeClasses[PeerDescriptor] // ShuffleReq and ShuffleReply
}

// Copy returns a deep copy of m, one of this package's messages, in recycled
// storage. The copy is the caller's until it goes back through Put.
func (p *Pool) Copy(m Message) Message {
	switch x := m.(type) {
	case *Propose:
		c := take(&p.proposes)
		c.Stream, c.IDs = x.Stream, p.ids.copyOf(x.IDs)
		return c
	case *Request:
		c := take(&p.requests)
		c.Stream, c.IDs = x.Stream, p.ids.copyOf(x.IDs)
		return c
	case *Serve:
		c := take(&p.serves)
		c.Stream, c.Events = x.Stream, p.events.copyOf(x.Events)
		return c
	case *Aggregate:
		c := take(&p.aggregates)
		c.Entries = p.entries.copyOf(x.Entries)
		return c
	case *ShuffleReq:
		c := take(&p.shuffleReqs)
		c.Descriptors = p.descriptors.copyOf(x.Descriptors)
		return c
	case *ShuffleReply:
		c := take(&p.shuffleReplies)
		c.Descriptors = p.descriptors.copyOf(x.Descriptors)
		return c
	case *AvgPush:
		c := take(&p.avgPushes)
		*c = *x
		return c
	case *AvgReply:
		c := take(&p.avgReplies)
		*c = *x
		return c
	}
	panic(fmt.Sprintf("wire: Pool cannot copy a %T", m))
}

// Put takes back a copy Copy returned, possibly from another Pool; neither
// it nor any slice in it may be used afterwards. Its slice goes to the free
// list of its capacity class and the emptied message to that of its kind; a
// Serve's events are cleared first, so a pooled slice pins no payload.
// Put(nil) does nothing.
func (p *Pool) Put(m Message) {
	switch x := m.(type) {
	case *Propose:
		p.ids.put(x.IDs)
		*x = Propose{}
		p.proposes = append(p.proposes, x)
	case *Request:
		p.ids.put(x.IDs)
		*x = Request{}
		p.requests = append(p.requests, x)
	case *Serve:
		clear(x.Events)
		p.events.put(x.Events)
		*x = Serve{}
		p.serves = append(p.serves, x)
	case *Aggregate:
		p.entries.put(x.Entries)
		*x = Aggregate{}
		p.aggregates = append(p.aggregates, x)
	case *ShuffleReq:
		p.descriptors.put(x.Descriptors)
		*x = ShuffleReq{}
		p.shuffleReqs = append(p.shuffleReqs, x)
	case *ShuffleReply:
		p.descriptors.put(x.Descriptors)
		*x = ShuffleReply{}
		p.shuffleReplies = append(p.shuffleReplies, x)
	case *AvgPush:
		p.avgPushes = append(p.avgPushes, x)
	case *AvgReply:
		p.avgReplies = append(p.avgReplies, x)
	}
}

// sizeClasses holds free slices of one element type by capacity class:
// class c holds slices of capacity at least 1<<c, exactly that for every
// slice copyOf made.
type sizeClasses[T any] [bits.UintSize][][]T

// copyOf returns a copy of s in a slice of the smallest class that holds it,
// allocating one of exactly that class's capacity when the class has none
// free. An empty s copies as nil.
func (sc *sizeClasses[T]) copyOf(s []T) []T {
	if len(s) == 0 {
		return nil
	}
	c := bits.Len(uint(len(s) - 1))
	if free := sc[c]; len(free) > 0 {
		d := free[len(free)-1]
		free[len(free)-1] = nil
		sc[c] = free[:len(free)-1]
		return append(d, s...)
	}
	return append(make([]T, 0, 1<<c), s...)
}

// put files s, emptied, under the largest class its capacity covers.
func (sc *sizeClasses[T]) put(s []T) {
	if cap(s) > 0 {
		c := bits.Len(uint(cap(s))) - 1
		sc[c] = append(sc[c], s[:0])
	}
}

// take pops a message off a free list, or allocates one when it is empty.
func take[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return new(T)
	}
	m := (*free)[n-1]
	*free = (*free)[:n-1]
	return m
}

// resize returns s with length n, reusing its backing array when n fits.
func resize[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return make([]T, n)
}

// reader is a consuming cursor over an encoded message body.
type reader struct {
	buf []byte
}

func (r *reader) u16() (uint16, error) {
	if len(r.buf) < 2 {
		return 0, ErrShortBuffer
	}
	v := binary.BigEndian.Uint16(r.buf)
	r.buf = r.buf[2:]
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if len(r.buf) < 4 {
		return 0, ErrShortBuffer
	}
	v := binary.BigEndian.Uint32(r.buf)
	r.buf = r.buf[4:]
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if len(r.buf) < 8 {
		return 0, ErrShortBuffer
	}
	v := binary.BigEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v, nil
}

func (r *reader) u8() (uint8, error) {
	if len(r.buf) < 1 {
		return 0, ErrShortBuffer
	}
	v := r.buf[0]
	r.buf = r.buf[1:]
	return v, nil
}

func (r *reader) take(n int) ([]byte, error) {
	if len(r.buf) < n {
		return nil, ErrShortBuffer
	}
	v := r.buf[:n:n]
	r.buf = r.buf[n:]
	return v, nil
}

// countStream decodes the shared item-count header of the dissemination
// messages: a bare count means the legacy stream 0; the streamFlag bit marks
// a 4-byte stream id following the count.
func (r *reader) countStream() (int, StreamID, error) {
	raw, err := r.u16()
	if err != nil {
		return 0, 0, err
	}
	n := int(raw &^ streamFlag)
	if raw&streamFlag == 0 {
		return n, 0, nil
	}
	s, err := r.u32()
	if err != nil {
		return 0, 0, err
	}
	if s == 0 {
		return 0, 0, ErrZeroStream
	}
	return n, StreamID(s), nil
}

// The list decoders below decode into *dst's backing array when the list
// fits it, and set *dst (and *stream) only on success. Fixed-size records are
// read in place once the count has been checked against the bytes left.

func (r *reader) streamIDs(stream *StreamID, dst *[]PacketID) error {
	n, s, err := r.countStream()
	if err != nil {
		return err
	}
	if n*8 > len(r.buf) {
		return ErrShortBuffer
	}
	ids := resize(*dst, n)
	for i := range ids {
		ids[i] = PacketID(binary.BigEndian.Uint64(r.buf[8*i:]))
	}
	r.buf = r.buf[8*n:]
	*stream, *dst = s, ids
	return nil
}

func (r *reader) streamEvents(stream *StreamID, dst *[]Event) error {
	n, s, err := r.countStream()
	if err != nil {
		return err
	}
	if n*eventWireSize > len(r.buf) {
		return ErrShortBuffer
	}
	evs := resize(*dst, n)
	for i := range evs {
		id, err := r.u64()
		if err != nil {
			return err
		}
		stamp, err := r.u64()
		if err != nil {
			return err
		}
		plen, err := r.u16()
		if err != nil {
			return err
		}
		payload, err := r.take(int(plen))
		if err != nil {
			return err
		}
		evs[i] = Event{ID: PacketID(id), Stream: s, Stamp: int64(stamp), Payload: payload}
	}
	*stream, *dst = s, evs
	return nil
}

func (r *reader) capEntries(dst *[]CapEntry) error {
	n, err := r.u8()
	if err != nil {
		return err
	}
	if int(n)*capEntryWireSize > len(r.buf) {
		return ErrShortBuffer
	}
	entries := resize(*dst, int(n))
	for i := range entries {
		b := r.buf[capEntryWireSize*i:]
		entries[i] = CapEntry{
			Node:    NodeID(int32(binary.BigEndian.Uint32(b))),
			CapKbps: binary.BigEndian.Uint32(b[4:]),
			AgeMs:   binary.BigEndian.Uint32(b[8:]),
		}
	}
	r.buf = r.buf[capEntryWireSize*len(entries):]
	*dst = entries
	return nil
}

func (r *reader) descriptors(dst *[]PeerDescriptor) error {
	n, err := r.u8()
	if err != nil {
		return err
	}
	if int(n)*peerDescriptorWireSize > len(r.buf) {
		return ErrShortBuffer
	}
	ds := resize(*dst, int(n))
	for i := range ds {
		b := r.buf[peerDescriptorWireSize*i:]
		ds[i] = PeerDescriptor{Node: NodeID(int32(binary.BigEndian.Uint32(b))), Age: binary.BigEndian.Uint16(b[4:])}
	}
	r.buf = r.buf[peerDescriptorWireSize*len(ds):]
	*dst = ds
	return nil
}

func (r *reader) twoFloats(value, weight *float64) error {
	if len(r.buf) < 16 {
		return ErrShortBuffer
	}
	*value = math.Float64frombits(binary.BigEndian.Uint64(r.buf))
	*weight = math.Float64frombits(binary.BigEndian.Uint64(r.buf[8:]))
	r.buf = r.buf[16:]
	return nil
}
