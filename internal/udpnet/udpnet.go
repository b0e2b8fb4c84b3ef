// Package udpnet runs the same protocol handlers that the simulator drives
// (internal/env.Handler) over real UDP sockets, the transport the paper's
// system uses: gossip targets change constantly and messages are small, so
// datagrams fit better than connections (§3.1), combined with
// application-level retransmission and upload throttling.
//
// Each datagram carries a 4-byte sender id followed by one wire message.
//
// # One event loop per process
//
// Every started Node of a process runs on one loop goroutine (loop.go),
// which keeps the simulator's queue discipline on the wall clock. A turn
// runs the due timers in (due, arm order), flushes each node's paced
// sender's released run, sleeps until the earliest due time (plus a
// millisecond of timer slack, so timers due close together share a
// wakeup), a readable socket or a poke, and then reads and dispatches each
// readable socket's batch. Handler callbacks — socket reads, timers, Start
// — run under the node's mutex, so a handler is never invoked concurrently
// with itself (the env contract). Execute runs caller code under the same
// mutex on the caller's goroutine, and a caller that has queued two full
// batches on the node's sender flushes one itself rather than wait for the
// loop. The sleep is the only platform-specific part: on Linux an epoll set
// over the sockets, an eventfd and a timerfd, which the loop parks on in
// the Go runtime's poller (wait_linux.go); elsewhere a reader goroutine per
// socket (wait_portable.go).
//
// # Batched-syscall fast path
//
// On Linux the node amortizes syscalls across datagrams: each turn the
// loop takes the run the paced sender's clock has released, up to
// ioBatchMax items, out in one lock hold and hands it to one sendmmsg(2),
// and reads up to a batch of messages per recvmmsg(2) into reusable
// staging buffers. Where the kernel offers UDP segmentation offload, each
// run of released datagrams to one peer leaves as one UDP_SEGMENT message
// — one kernel pass for the train — and the receiving socket, with UDP_GRO
// on, reads the train back as one message that the loop splits at the
// reported segment size. Encode-path buffers are pooled and returned after
// the kernel copy completes. Node.Collect counts the send and receive
// syscalls. Everywhere else — and on Linux under Config.DisableBatch — the
// same loop runs over a batch of one: singleIO issues one portable syscall
// per datagram, with identical delivery and accounting semantics; see
// batch_linux.go / batch_fallback.go for the build-tag split. That portable
// path is the one for platforms without sendmmsg and the oracle the tests
// hold the batched path to; it is not tuned for Linux, where one loop pays
// a wait, a recvfrom and a sendto per datagram.
//
// # A steady state that allocates nothing of its own
//
// The transport adds no heap objects to what the protocol allocates. The
// loop takes a batch in windows of at most ioBatchMax frames, keeps one
// wire.Decoder per window position and decodes each frame in place, so a
// whole window of messages stays valid until its single mutex-held
// dispatch; by env.Handler's lifetime rule a handler keeps no message past
// Receive, only a Serve's payload bytes — so Serve bodies, and nothing
// else, are first copied into one arena allocation per window. The
// batched path issues its syscalls directly on a descriptor it owns
// (batch_linux.go), the pacer queues into a preallocated ring (ratelimit),
// and AfterFunc — every ticker period and retransmission timeout — and
// every netem-delayed datagram are an entry in the loop's timer heap, not
// a closure and a runtime timer. Close sweeps the node's entries off the
// heap, so a closed node's stack is garbage at once rather than when its
// last ticker would have fired.
package udpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/env"
	"repro/internal/netem"
	"repro/internal/ratelimit"
	"repro/internal/wire"
)

// maxDatagram bounds receive buffers. Serve batches can exceed an Ethernet
// MTU; loopback and most paths handle fragmentation, and the paper's packet
// size (1316 B) keeps single-packet serves under the MTU.
const maxDatagram = 64 * 1024

// frameHeader is the per-datagram overhead: the 4-byte sender id.
const frameHeader = 4

// ioBatchMax is K, the batched-syscall fan-in: at most this many messages
// ride one sendmmsg/recvmmsg call (a message may be a segmented train), the
// paced sender coalesces at most this many released items per flush, and
// the event loop dispatches at most this many frames per mutex hold.
const ioBatchMax = 32

// defaultSocketBuffer is the SO_RCVBUF/SO_SNDBUF request applied at bind
// when Config.SocketBufferBytes is zero. The kernel-default rmem (a few
// hundred KiB) silently drops inbound datagrams under bursts well below a
// node's configured capability, which reads as network loss in experiments.
const defaultSocketBuffer = 1 << 20

// Config parameterizes a UDP node.
type Config struct {
	// Listen is the UDP listen address, e.g. "127.0.0.1:0".
	Listen string
	// UploadBps throttles outgoing bandwidth (token bucket + app-level
	// queue, §3.1). 0 means unthrottled.
	UploadBps int64
	// QueueCap bounds the application-level send queue. Default 1024.
	QueueCap int
	// SocketBufferBytes sizes the kernel socket buffers (SO_RCVBUF and
	// SO_SNDBUF) at bind. 0 selects the 1 MiB default; negative leaves the
	// kernel defaults untouched.
	SocketBufferBytes int
	// DisableBatch forces the portable single-syscall I/O path even where
	// batched syscalls (sendmmsg/recvmmsg) are available. The two paths
	// deliver identically; this knob exists for benchmarks comparing them
	// and for diagnosing platform quirks.
	DisableBatch bool
	// Seed drives the node's protocol randomness.
	Seed int64
	// Epoch is the time base for Runtime.Now (and therefore for packet lag
	// stamps and netem schedules). Zero means the node's own start time.
	// Give every node of a deployment the same epoch so that lag
	// measurements share a clock and schedule-driven netem models
	// (partitions, spikes) open and heal their windows simultaneously on
	// all nodes regardless of start order.
	Epoch time.Time
	// Netem, if non-nil, intercepts every outbound datagram before the
	// paced sender — the same transmit-time consultation point as the
	// simulator, so per-sender model state (Gilbert-Elliott uplink chains)
	// behaves identically on sockets: this node's bursts clump across all
	// its receivers. The verdict drops the datagram or defers its enqueue
	// by the extra delay (a tc-netem qdisc in front of the device). The
	// model runs in the node's execution context and needs no internal
	// locking.
	Netem netem.Model
}

// outDatagram is one frame awaiting paced transmission. buf points at
// pooled storage: whoever removes the datagram from flight — the flush
// after the kernel copy, or any drop path — returns it via putSendBuf.
type outDatagram struct {
	buf *[]byte
	to  *peerAddr
}

// peerAddr is one directory entry in the form each I/O path wants: the
// batched path encodes udp into a raw sockaddr per socket family; the
// portable path reads and writes netip.AddrPorts, which — unlike a
// *net.UDPAddr per ReadFromUDP — cost no allocation per datagram.
type peerAddr struct {
	udp *net.UDPAddr
	ap  netip.AddrPort // udp, unmapped: valid on an IPv4 and a dual-stack socket alike
}

func newPeerAddr(udp *net.UDPAddr) *peerAddr {
	ap := udp.AddrPort()
	return &peerAddr{udp: udp, ap: netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())}
}

func (d outDatagram) frame() []byte { return *d.buf }

// sendBufPool recycles encode-path frame buffers. Buffers grow to fit large
// serve batches and keep their capacity across uses.
var sendBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 2048)
	return &b
}}

func getSendBuf() *[]byte  { return sendBufPool.Get().(*[]byte) }
func putSendBuf(b *[]byte) { sendBufPool.Put(b) }

// batchIO is the socket as the event loop and the paced sender see it.
// newBatchIO (see the build-tagged batch files) is the batched-syscall
// implementation; singleIO is the portable batch of one.
type batchIO interface {
	// WriteBatch transmits the frames in order, blocking on socket
	// writability as needed. Losing a datagram is normal UDP behaviour
	// (protocols handle it), so per-datagram errors are swallowed.
	WriteBatch(items []outDatagram)
	// ReadBatch reads what the socket holds and returns how many frames
	// were received — one per datagram, or per segment of a coalesced
	// train. The frames are valid until the next ReadBatch. The loop calls
	// it only on a socket reported readable, of which it is the one reader;
	// mmsgIO's read never waits, singleIO's portable read would wait were
	// the socket empty.
	ReadBatch() (int, error)
	// Frame returns received frame i (header included).
	Frame(i int) []byte
	// SrcMatches reports whether frame i's source address is peer's.
	SrcMatches(i int, peer *peerAddr) bool
	// Syscalls returns how many send and receive calls the socket has
	// made, and how many of the receive calls found nothing queued. Safe
	// from any goroutine.
	Syscalls() (send, recv, recvEmpty int64)
	// Control runs f with the socket's descriptor; an error means the
	// socket is closed.
	Control(f func(fd uintptr)) error
	// Close closes the socket.
	Close() error
}

// singleIO implements batchIO with the portable one-datagram-per-syscall
// calls: every ReadBatch is one ReadFromUDPAddrPort into a reused buffer.
type singleIO struct {
	conn *net.UDPConn
	buf  []byte
	size int
	from netip.AddrPort

	sendCalls, recvCalls atomic.Int64
}

func (s *singleIO) WriteBatch(items []outDatagram) {
	for _, d := range items {
		s.sendCalls.Add(1)
		_, _ = s.conn.WriteToUDPAddrPort(d.frame(), d.to.ap)
	}
}

func (s *singleIO) ReadBatch() (int, error) {
	var err error
	s.recvCalls.Add(1)
	s.size, s.from, err = s.conn.ReadFromUDPAddrPort(s.buf)
	if err != nil {
		return 0, err
	}
	return 1, nil
}

func (s *singleIO) Frame(int) []byte { return s.buf[:s.size] }

// SrcMatches compares unmapped addresses (a dual-stack socket reports IPv4
// sources in the mapped form) and, like net.IP.Equal, ignores zones.
func (s *singleIO) SrcMatches(_ int, peer *peerAddr) bool {
	return s.from.Port() == peer.ap.Port() &&
		s.from.Addr().Unmap().WithZone("") == peer.ap.Addr().WithZone("")
}

// Syscalls counts one call per datagram; the net package's retries after
// the socket was not ready are not visible here, so no receive counts as
// empty.
func (s *singleIO) Syscalls() (send, recv, recvEmpty int64) {
	return s.sendCalls.Load(), s.recvCalls.Load(), 0
}

func (s *singleIO) Control(f func(fd uintptr)) error {
	rc, err := s.conn.SyscallConn()
	if err != nil {
		return err
	}
	return rc.Control(f)
}

func (s *singleIO) Close() error { return s.conn.Close() }

// openIO picks the socket I/O and its batch size: batched syscalls where
// they exist, else (non-Linux platforms, an exotic socket without a
// raw-syscall view, or by request) the portable batch of one. The batchIO
// owns conn from here on.
func openIO(conn *net.UDPConn, disableBatch bool) (batchIO, int) {
	if !disableBatch {
		if bio, err := newBatchIO(conn); err == nil {
			return bio, ioBatchMax
		}
	}
	return &singleIO{conn: conn, buf: make([]byte, maxDatagram)}, 1
}

// Node hosts one protocol stack (an env.Handler, typically an env.Mux) on a
// real UDP socket and implements env.Runtime for it.
type Node struct {
	id      wire.NodeID
	handler env.Handler
	addr    *net.UDPAddr
	bio     batchIO
	sender  *ratelimit.Sender[outDatagram]
	epoch   time.Time

	// host is the event loop the node joined at Start; token names its
	// socket to the loop's wait. pacerDirty is set by the paced sender's
	// notify; pacerDue, the loop's own, is when the sender's next item is
	// due (zero: its ring was empty).
	host       atomic.Pointer[host]
	token      uint32
	pacerDirty atomic.Bool
	pacerDue   time.Time

	mu      sync.Mutex // serializes handler callbacks and guards the fields below
	rng     *rand.Rand
	peers   map[wire.NodeID]*peerAddr
	netem   netem.Model
	started bool
	closed  bool

	// decodeErrors counts datagrams that failed to parse; netemDropped and
	// netemDelayed count outbound datagrams the netem model dropped or
	// deferred. Read them through DecodeErrorCount and NetemCounters.
	decodeErrors int
	netemDropped int
	netemDelayed int
}

var _ env.Runtime = (*nodeRuntime)(nil)

// NewNode binds a socket and prepares the node. Call SetPeers and Start
// before traffic flows.
func NewNode(id wire.NodeID, handler env.Handler, cfg Config) (*Node, error) {
	if handler == nil {
		return nil, errors.New("udpnet: nil handler")
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 1024
	}
	if cfg.SocketBufferBytes == 0 {
		cfg.SocketBufferBytes = defaultSocketBuffer
	}
	addr, err := net.ResolveUDPAddr("udp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("udpnet: resolve %q: %w", cfg.Listen, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("udpnet: listen %q: %w", cfg.Listen, err)
	}
	if cfg.SocketBufferBytes > 0 {
		// The kernel clamps oversized requests (rmem_max/wmem_max) without
		// erroring; real errors here mean a broken socket.
		if err := conn.SetReadBuffer(cfg.SocketBufferBytes); err != nil {
			conn.Close()
			return nil, fmt.Errorf("udpnet: SO_RCVBUF: %w", err)
		}
		if err := conn.SetWriteBuffer(cfg.SocketBufferBytes); err != nil {
			conn.Close()
			return nil, fmt.Errorf("udpnet: SO_SNDBUF: %w", err)
		}
	}
	if cfg.Epoch.IsZero() {
		cfg.Epoch = time.Now()
	}
	n := &Node{
		id:      id,
		handler: handler,
		addr:    conn.LocalAddr().(*net.UDPAddr),
		epoch:   cfg.Epoch,
		rng:     rand.New(rand.NewSource(cfg.Seed ^ int64(id)<<32 ^ 0x7ee1)),
		peers:   make(map[wire.NodeID]*peerAddr),
		netem:   cfg.Netem,
	}
	var batchMax int
	n.bio, batchMax = openIO(conn, cfg.DisableBatch)
	sender, err := ratelimit.NewSteppedSender(cfg.UploadBps, cfg.QueueCap, batchMax,
		func(d outDatagram) int { return len(d.frame()) + wire.UDPOverheadBytes },
		n.flushBatch, n.wakeLoop)
	if err != nil {
		n.bio.Close()
		return nil, err
	}
	n.sender = sender
	return n, nil
}

// flushBatch transmits one paced batch, on the event loop, and returns the
// frame buffers to the pool — the kernel has copied the data out by the
// time the syscall returns.
func (n *Node) flushBatch(items []outDatagram) {
	n.bio.WriteBatch(items)
	for i := range items {
		putSendBuf(items[i].buf)
		items[i].buf = nil
	}
}

// ID returns the node's identity.
func (n *Node) ID() wire.NodeID { return n.id }

// Addr returns the bound UDP address.
func (n *Node) Addr() *net.UDPAddr { return n.addr }

// SetPeers installs the address directory (replacing any previous one).
func (n *Node) SetPeers(peers map[wire.NodeID]*net.UDPAddr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peers = make(map[wire.NodeID]*peerAddr, len(peers))
	for id, addr := range peers {
		n.peers[id] = newPeerAddr(addr)
	}
}

// AddPeer registers one peer address.
func (n *Node) AddPeer(id wire.NodeID, addr *net.UDPAddr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peers[id] = newPeerAddr(addr)
}

// Start joins the process's event loop (starting it if this is the first
// running node) and starts the handler. It must be called at most once, and
// not after Close.
func (n *Node) Start() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	switch {
	case n.started:
		return errors.New("udpnet: already started")
	case n.closed:
		return errors.New("udpnet: closed")
	}
	h, err := join(n)
	if err != nil {
		return fmt.Errorf("udpnet: event loop: %w", err)
	}
	n.host.Store(h)
	n.started = true
	n.handler.Start(&nodeRuntime{n: n})
	return nil
}

// Close stops the node: it leaves the event loop, which drops its timers
// and delayed datagrams — a pending one would otherwise keep the whole
// stack (tables, buffered payloads) reachable until it fired, two minutes
// for the engine's prune ticker — and stops when this was its last node;
// then the socket is closed, the paced sender is shut down and the handler
// is stopped. Idempotent.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	started := n.started
	n.mu.Unlock()

	if started {
		n.host.Load().leave(n)
	}
	n.bio.Close()
	n.sender.Close()

	n.mu.Lock()
	if started {
		n.handler.Stop()
	}
	n.mu.Unlock()
}

// wakeLoop is the paced sender's notify: the loop learns of an item that
// entered an empty ring, or of a new rate, when it is parked.
func (n *Node) wakeLoop() {
	n.pacerDirty.Store(true)
	if h := n.host.Load(); h != nil {
		h.wake()
	}
}

// SetUploadBps rewrites the paced sender's rate mid-run (capability drift,
// netem capability traces). <= 0 means unthrottled; takes effect for
// datagrams paced after the call.
func (n *Node) SetUploadBps(bps int64) { n.sender.SetRate(bps) }

// NetemCounters returns how many outbound datagrams the netem model dropped
// and deferred. Unlike Execute-based reads it stays truthful after Close.
func (n *Node) NetemCounters() (dropped, delayed int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.netemDropped, n.netemDelayed
}

// SendDropped returns how many outgoing datagrams the paced sender has
// tail-dropped because its bounded queue was full — the real-socket
// equivalent of the simulator's MsgsTailDrop, and the first symptom of a
// node trying to send past its upload capability. Rejections by a closed
// sender are not counted: they are shutdown, not congestion.
func (n *Node) SendDropped() int64 { return n.sender.Dropped() }

// SendBacklog returns the time the paced sender's queue needs to drain at
// the current rate — the real-socket equivalent of the simulator's
// QueueBacklog, and the congestion signal the adaptation layer watches.
// Zero after Close: discarded items leave the gauge.
func (n *Node) SendBacklog() time.Duration { return n.sender.QueueBacklog() }

// SentBytes returns the monotonic count of bytes actually transmitted
// (UDP overhead included), counted at transmit rather than enqueue.
func (n *Node) SentBytes() int64 { return n.sender.BytesSent() }

// AcceptedBytes returns the monotonic count of bytes accepted into the
// paced sender's queue (enqueue-counted, drops excluded) — the adapt.Sample
// SentBytes convention, matching the simulator's enqueue-side accounting.
func (n *Node) AcceptedBytes() int64 { return n.sender.AcceptedBytes() }

// QueuedBytes returns the bytes accepted for transmission but still waiting
// in the paced sender's queue. Zero after Close.
func (n *Node) QueuedBytes() int64 { return n.sender.QueuedBytes() }

// DecodeErrorCount returns how many inbound datagrams failed to parse.
// Like NetemCounters it stays truthful after Close.
func (n *Node) DecodeErrorCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.decodeErrors
}

// Collect emits the node's transport counters as named samples — the
// registration surface for a telemetry registry: the paced sender's books
// (udp_ prefix, conservation-checkable; see ratelimit.Sender.Collect) plus
// decode errors, the socket's send and receive syscalls (datagrams per
// syscall is udp_send_datagrams_total over udp_send_syscalls_total), the
// receive syscalls that found the socket empty (the loop reads only sockets
// its wait reported readable, so on the batched path this stays 0), the
// event loop's parks, deadline-timer arms and pokes (udp_loop_parks_total,
// udp_timer_arms_total, udp_loop_pokes_total: one loop serves every node of
// the process, so each of its nodes reports the same loop-wide counts) and,
// when a netem model runs, its outbound drop/delay counters. Safe from any
// goroutine and truthful after Close.
func (n *Node) Collect(emit func(name string, value float64)) {
	n.sender.Collect(func(name string, v float64) { emit("udp_"+name, v) })
	n.mu.Lock()
	decode, dropped, delayed := n.decodeErrors, n.netemDropped, n.netemDelayed
	hasNetem := n.netem != nil
	n.mu.Unlock()
	emit("udp_decode_errors_total", float64(decode))
	sendCalls, recvCalls, recvEmpty := n.bio.Syscalls()
	emit("udp_send_syscalls_total", float64(sendCalls))
	emit("udp_recv_syscalls_total", float64(recvCalls))
	emit("udp_recv_empty_syscalls_total", float64(recvEmpty))
	// The loop's wake counters, shared by every node started on it.
	var parks, arms, pokes uint64
	if h := n.host.Load(); h != nil {
		c := h.w.counts()
		parks, arms, pokes = c.parks.Load(), c.timerArms.Load(), c.pokes.Load()
	}
	emit("udp_loop_parks_total", float64(parks))
	emit("udp_timer_arms_total", float64(arms))
	emit("udp_loop_pokes_total", float64(pokes))
	if hasNetem {
		emit("netem_out_dropped_total", float64(dropped))
		emit("netem_out_delayed_total", float64(delayed))
	}
}

// Attach starts an additional lifecycle-only handler on a running node (one
// that receives no messages, like a stream source: its activity is all
// timers). The handler's Start runs in the node's execution context; its
// timers are silenced by Close like every other callback, but its Stop is
// NOT invoked on Close — attached handlers must tolerate that (env.Handler
// already requires timers to guard themselves). Reports false if the node
// is not started or already closed.
func (n *Node) Attach(h env.Handler) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.started || n.closed {
		return false
	}
	h.Start(&nodeRuntime{n: n})
	return true
}

// Execute runs fn in the node's execution context (serialized with all
// handler callbacks), so external code can safely touch handler state —
// views, estimators, statistics. It reports false if the node is closed.
// It runs on the caller's goroutine, not the event loop's; a caller whose
// sends have put two full batches in the paced sender's queue (a load
// generator outrunning the loop) flushes one before returning.
func (n *Node) Execute(fn func()) bool {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return false
	}
	fn()
	n.mu.Unlock()
	n.sender.FlushBacklog()
	return true
}

// nodeRuntime implements env.Runtime over the node.
type nodeRuntime struct {
	n *Node
}

func (rt *nodeRuntime) ID() wire.NodeID    { return rt.n.id }
func (rt *nodeRuntime) Now() time.Duration { return time.Since(rt.n.epoch) }

// Rand implements env.Runtime. It is only called from handler callbacks,
// which hold the node mutex, so the shared rng is safe.
func (rt *nodeRuntime) Rand() *rand.Rand { return rt.n.rng }

// Send implements env.Runtime: marshal into a pooled frame buffer, pass the
// netem interceptor (if any), and hand to the paced sender. Unknown
// destinations are dropped silently (UDP semantics). Every drop path
// returns the buffer to the pool; accepted frames are returned by the flush
// once the kernel copy completes.
func (rt *nodeRuntime) Send(to wire.NodeID, m wire.Message) {
	n := rt.n
	peer, ok := n.peers[to]
	if !ok {
		return
	}
	bp := getSendBuf()
	buf := append((*bp)[:0], 0, 0, 0, 0)
	binary.BigEndian.PutUint32(buf, uint32(n.id))
	buf = m.MarshalBinary(buf)
	*bp = buf // keep any growth for reuse
	d := outDatagram{buf: bp, to: peer}
	if n.netem != nil {
		// Send runs in the node's execution context (under mu), so the
		// model and rng need no extra locking — the same single-threaded
		// contract the simulator gives its models. The judged size matches
		// the simulator's: wire size plus UDP/IP overhead, no frame header.
		verdict := n.netem.Judge(n.id, to, len(buf)-frameHeader+wire.UDPOverheadBytes,
			time.Since(n.epoch), n.rng)
		switch {
		case verdict.Drop:
			n.netemDropped++
			putSendBuf(bp)
			return
		case verdict.Delay > 0:
			// The datagram waits on the loop's timer heap and enters the
			// sender when due. One still waiting when the node closes is
			// discarded there rather than hitting the closed sender, which
			// would count it as a queue-overflow drop and pollute the
			// SendDropped congestion signal.
			n.netemDelayed++
			n.host.Load().push(timerEnt{n: n, d: d}, verdict.Delay)
			return
		}
	}
	if !n.sender.Enqueue(d) {
		putSendBuf(bp)
	}
}

// AfterFunc implements env.Runtime: the timer call of every ticker period,
// retransmission timeout and shuffle reply deadline. Like every Runtime
// method it runs in the node's execution context (under mu). It pushes an
// entry onto the event loop's timer heap, which allocates nothing once the
// heap has grown to the most entries ever armed at once; a closed node arms
// nothing.
func (rt *nodeRuntime) AfterFunc(d time.Duration, fn func()) {
	n := rt.n
	if n.closed {
		return
	}
	n.host.Load().push(timerEnt{n: n, fn: fn}, d)
}
