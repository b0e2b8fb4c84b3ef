package stream

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/fec"
	"repro/internal/wire"
)

// NotReceived marks a packet that never arrived in a Receiver's record.
const NotReceived = time.Duration(-1)

// Receiver records packet arrivals at one node and, optionally, exercises
// the full FEC decode path, reconstructing missing source packets and
// verifying their content against the deterministic payload generator.
//
// The receiver's records feed the metrics package: every evaluation metric
// of the paper (stream lag, jitter, delivery ratios) derives from receive
// times plus the window geometry, which fixes every publish time, so the
// events' stamps are not kept.
type Receiver struct {
	geom    Geometry
	windows int

	recvAt []time.Duration // indexed by packet id; NotReceived if missing
	count  int             // distinct packets received

	// verify mode
	verify   bool
	code     *fec.Code
	payloads [][][]byte // per window, per index; nil entries missing
	pending  []int      // per window: distinct packets received
	decoded  []bool     // per window: reconstruction done

	// DecodedWindows counts windows fully reconstructed in verify mode.
	DecodedWindows int
	// VerifyFailures counts reconstructed packets whose content mismatched.
	VerifyFailures int
}

// NewReceiver builds a Receiver for a stream of the given window count.
// With verify set, payloads are retained per window and FEC reconstruction
// plus content verification runs as soon as each window becomes decodable.
func NewReceiver(geom Geometry, windows int, verify bool) (*Receiver, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	if windows <= 0 {
		return nil, fmt.Errorf("stream: windows %d must be positive", windows)
	}
	total := geom.TotalPackets(windows)
	r := &Receiver{
		geom:    geom,
		windows: windows,
		recvAt:  make([]time.Duration, total),
		verify:  verify,
	}
	for i := range r.recvAt {
		r.recvAt[i] = NotReceived
	}
	if verify {
		code, err := fec.New(geom.DataPerWindow, geom.ParityPerWindow)
		if err != nil {
			return nil, err
		}
		r.code = code
		r.payloads = make([][][]byte, windows)
		r.pending = make([]int, windows)
		r.decoded = make([]bool, windows)
	}
	return r, nil
}

// OnDeliver is the core.DeliverFunc for this receiver.
func (r *Receiver) OnDeliver(ev wire.Event, at time.Duration) {
	id := int(ev.ID)
	if id < 0 || id >= len(r.recvAt) {
		return // outside the measured stream (e.g., warmup traffic)
	}
	if r.recvAt[id] != NotReceived {
		return // duplicate (the engine prevents these, but be safe)
	}
	r.recvAt[id] = at
	r.count++
	if r.verify {
		r.recordForDecode(ev)
	}
}

func (r *Receiver) recordForDecode(ev wire.Event) {
	w := r.geom.WindowOf(ev.ID)
	idx := r.geom.IndexInWindow(ev.ID)
	if r.payloads[w] == nil {
		r.payloads[w] = make([][]byte, r.geom.PacketsPerWindow())
	}
	if r.payloads[w][idx] != nil {
		return
	}
	r.payloads[w][idx] = ev.Payload
	r.pending[w]++
	if !r.decoded[w] && r.pending[w] >= r.geom.DataPerWindow {
		r.decodeWindow(w)
	}
}

// decodeWindow reconstructs the window's missing source packets and verifies
// every source payload against the generator.
func (r *Receiver) decodeWindow(w int) {
	r.decoded[w] = true
	shards := make([][]byte, r.geom.PacketsPerWindow())
	copy(shards, r.payloads[w])
	if err := r.code.Reconstruct(shards); err != nil {
		r.VerifyFailures++
		return
	}
	for idx := 0; idx < r.geom.DataPerWindow; idx++ {
		id := r.geom.PacketIDAt(w, idx)
		if !bytes.Equal(shards[idx], r.geom.PayloadFor(id)) {
			r.VerifyFailures++
		}
	}
	r.DecodedWindows++
	// Reconstruction done; release window payload references.
	r.payloads[w] = nil
}

// Received returns how many distinct packets arrived.
func (r *Receiver) Received() int { return r.count }

// ReceivedAt returns the arrival time of a packet and whether it arrived.
func (r *Receiver) ReceivedAt(id wire.PacketID) (time.Duration, bool) {
	i := int(id)
	if i < 0 || i >= len(r.recvAt) || r.recvAt[i] == NotReceived {
		return 0, false
	}
	return r.recvAt[i], true
}

// Records exposes the raw arrival times indexed by packet id (NotReceived
// marks gaps). The returned slice is the receiver's own storage; callers
// must not modify it.
func (r *Receiver) Records() []time.Duration { return r.recvAt }

// Geometry returns the stream geometry.
func (r *Receiver) Geometry() Geometry { return r.geom }

// Windows returns the stream length in windows.
func (r *Receiver) Windows() int { return r.windows }
