//go:build linux

// Batched-syscall I/O for Linux: sendmmsg(2)/recvmmsg(2) over the socket's
// raw file descriptor, amortizing one syscall across up to ioBatchMax
// messages in each direction, with UDP segmentation offload on top: a run
// of released frames for one peer leaves as one UDP_SEGMENT message (one
// kernel pass for the whole train), and a UDP_GRO socket reads such a train
// back as one message and splits it by the segment size the kernel reports.
// The syscalls are issued directly, with a hand-rolled mmsghdr layout
// (struct msghdr plus the kernel-written msg_len) and hand-built control
// messages, so the module stays free of dependencies outside the standard
// library.
//
// The rule for the event loop's syscalls (here and in wait_linux.go): a call
// that cannot block goes through syscall.RawSyscall6, and only a call that
// can wait goes through syscall.Syscall6. Syscall6 tells the scheduler the
// thread may block, so the runtime's monitor hands the loop's P to another
// thread when the call outlasts ~20 µs — which a loopback sendmmsg, running
// the receiver's whole stack inline, often does — and the loop pays the
// handoff and the thread wakeups that follow. recvmmsg and sendmmsg cannot
// block because the descriptor is non-blocking (newBatchIO sets O_NONBLOCK
// on it and fails without it), and the eventfd poke writes a non-blocking
// descriptor; the one scheduler-accounted call is waitWritable's ppoll on a
// full send buffer, which sleeps up to a millisecond. The loop's own park
// stays in the runtime poller (wait_linux.go). TestLoopSyscallsAreRaw scans
// both files for the rule.
//
// The portable one-syscall-per-datagram path
// (singleIO) serves the inverse build tag (batch_fallback.go) and
// Config.DisableBatch. The batched path owns a duplicate of the socket's
// descriptor and closes the net.UDPConn it came from, so the Go runtime's
// poller stops watching the socket: the event loop's epoll set is the only
// one a datagram wakes.

package udpnet

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// sysSendmmsg is sendmmsg(2)'s number for this GOARCH. The std syscall
// package's tables were frozen before sendmmsg landed on several
// architectures (linux/amd64 has SYS_RECVMMSG but not SYS_SENDMMSG), so the
// number is carried here. Zero — an architecture not listed — disables the
// batched path entirely rather than issuing a wrong syscall.
var sysSendmmsg = map[string]uintptr{
	"amd64":   307,
	"386":     345,
	"arm":     374,
	"arm64":   269, // asm-generic table, shared by the modern ports
	"riscv64": 269,
	"loong64": 269,
	"ppc64":   349,
	"ppc64le": 349,
	"s390x":   358,
}[runtime.GOARCH]

// The UDP offload socket options, which the std syscall package predates
// (linux/udp.h): carried by hand like sysSendmmsg.
const (
	solUDP     = 17  // SOL_UDP
	udpSegment = 103 // UDP_SEGMENT: a send's segment size (u16 control message)
	udpGRO     = 104 // UDP_GRO: deliver coalesced trains with their segment size (int control message)
)

// gsoMaxSegment is the largest frame a segmented send carries: the UDP
// payload of one IPv6 packet on a 1500-byte MTU (1500 - 40 - 8), so any such
// path accepts every segment. ioBatchMax of them stay under 64 KiB.
const gsoMaxSegment = 1452

var (
	sendCtrlSpace = syscall.CmsgSpace(2) // one UDP_SEGMENT message per send header
	recvCtrlSpace = syscall.CmsgSpace(4) // one UDP_GRO message per receive slot
)

// mmsghdr mirrors the kernel's struct mmsghdr: the embedded msghdr plus the
// per-message byte count the kernel writes back. Go's trailing struct
// padding matches C's on every GOARCH because syscall.Msghdr carries the
// arch-correct field layout.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
}

// setLen stores n into a msghdr length field whose width depends on GOARCH
// (msg_iovlen is uint32 on 386 and arm, uint64 on amd64 and arm64).
func setLen[T ~uint32 | ~uint64](field *T, n int) { *field = T(n) }

// rxStage is a receive staging area: recvmmsg's headers, iovecs, buffers,
// source addresses and control space for ioBatchMax datagrams, and the
// frames the last read into it split out — one per segment of every
// received slot (segs grows to the largest batch seen, then stays). Its
// frames never escape: messages are decoded in place and dispatched before
// the next read (only Serve bodies, whose payloads handlers keep, are copied
// out first). So one stage serves every socket whose reads are taken and
// dispatched one at a time: the event loop's waiter keeps one
// ioBatchMax×maxDatagram stage for all the sockets of the process
// (wait_linux.go), and a socket read elsewhere gets its own on first use.
type rxStage struct {
	hdrs  []mmsghdr
	iov   []syscall.Iovec
	bufs  [][]byte
	names []syscall.RawSockaddrAny
	ctrl  []byte // recvCtrlSpace per slot
	segs  []rxSegment
	count int
	errno syscall.Errno
}

func newRxStage() *rxStage {
	s := &rxStage{
		hdrs:  make([]mmsghdr, ioBatchMax),
		iov:   make([]syscall.Iovec, ioBatchMax),
		bufs:  make([][]byte, ioBatchMax),
		names: make([]syscall.RawSockaddrAny, ioBatchMax),
		ctrl:  make([]byte, ioBatchMax*recvCtrlSpace),
		segs:  make([]rxSegment, 0, ioBatchMax),
	}
	backing := make([]byte, ioBatchMax*maxDatagram)
	for i := range s.hdrs {
		buf := backing[i*maxDatagram : (i+1)*maxDatagram]
		s.bufs[i] = buf
		s.iov[i].Base = &buf[0]
		s.iov[i].SetLen(len(buf))
		s.hdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&s.names[i]))
		s.hdrs[i].hdr.Iov = &s.iov[i]
		s.hdrs[i].hdr.Iovlen = 1
		s.hdrs[i].hdr.Control = &s.ctrl[i*recvCtrlSpace]
	}
	return s
}

// mmsgIO implements batchIO over one UDP socket's raw descriptor.
type mmsgIO struct {
	// mu is held shared by every use of fd and exclusively by Close, so no
	// call reaches the number once it is closed (and perhaps reused).
	mu      sync.RWMutex
	fd      int
	closed  bool
	closing atomic.Bool // ends a send's wait for writability
	ipv6    bool        // socket family: encode destinations to match
	gso     bool        // group same-peer runs into UDP_SEGMENT sends; off for good once the kernel refuses one

	// Receive side: rx is the stage of the last read, whose frames Frame
	// and SrcMatches return; own is the socket's own stage, made by the
	// first ReadBatch (the event loop reads into its waiter's instead).
	rx, own *rxStage

	// Send side, allocated once; headers are rebuilt per WriteBatch: one
	// iovec per frame, one header per frame or segmented run. sfirst[h] is
	// the chunk index of header h's first frame. send transmits
	// shdrs[wsent:wk] and sets refused when the kernel rejects a segmented
	// header; only the paced sender's flush, on the event loop, calls
	// WriteBatch.
	shdrs     []mmsghdr
	siov      []syscall.Iovec
	snames    []syscall.RawSockaddrAny
	sctrl     []byte // sendCtrlSpace per header
	sfirst    []int
	wsent, wk int
	refused   bool
	pfd       pollFd
	pwait     syscall.Timespec

	sendCalls, recvCalls, recvEmpty atomic.Int64
}

// pollFd is struct pollfd, the same on every architecture.
type pollFd struct {
	fd             int32
	events, revent int16
}

const pollOut = 0x4 // POLLOUT

// rxSegment is one received frame: a segment of staging slot slot.
type rxSegment struct {
	frame []byte
	slot  int
}

// newBatchIO wires the batched-syscall path over conn and turns on the
// segmentation offloads the kernel has. On success it owns the socket: it
// keeps a duplicate descriptor and closes conn, which takes the socket out
// of the Go runtime's poller. An error (no raw descriptor view, no syscall
// number) leaves conn alone and makes the caller keep singleIO.
func newBatchIO(conn *net.UDPConn) (batchIO, error) {
	if sysSendmmsg == 0 {
		return nil, errors.New("udpnet: no sendmmsg number for this GOARCH")
	}
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	fd, dupErr := -1, error(nil)
	if err := rc.Control(func(orig uintptr) {
		syscall.ForkLock.RLock()
		defer syscall.ForkLock.RUnlock()
		if fd, dupErr = syscall.Dup(int(orig)); dupErr == nil {
			syscall.CloseOnExec(fd)
		}
	}); err != nil {
		return nil, err
	}
	if dupErr != nil {
		return nil, dupErr
	}
	// The dup shares the socket's file status, which the net package made
	// non-blocking; say so here, since every call on fd relies on it.
	if err := syscall.SetNonblock(fd, true); err != nil {
		syscall.Close(fd)
		return nil, err
	}
	local, _ := conn.LocalAddr().(*net.UDPAddr)
	m := &mmsgIO{
		fd:     fd,
		ipv6:   local == nil || local.IP.To4() == nil,
		shdrs:  make([]mmsghdr, ioBatchMax),
		siov:   make([]syscall.Iovec, ioBatchMax),
		snames: make([]syscall.RawSockaddrAny, ioBatchMax),
		sctrl:  make([]byte, ioBatchMax*sendCtrlSpace),
		sfirst: make([]int, ioBatchMax),
	}
	// A kernel without the offloads (before 4.18 for GSO, 5.0 for GRO)
	// refuses the options; the socket then keeps one datagram per message.
	// Without GRO no message carries a segment size, so the receive side
	// needs no flag of its own.
	_, gsoErr := syscall.GetsockoptInt(fd, solUDP, udpSegment)
	m.gso = gsoErr == nil
	_ = syscall.SetsockoptInt(fd, solUDP, udpGRO, 1)
	m.pfd = pollFd{fd: int32(fd), events: pollOut}
	m.pwait = syscall.NsecToTimespec(int64(time.Millisecond))
	conn.Close()
	return m, nil
}

// ReadBatch implements batchIO: readInto the socket's own stage.
func (m *mmsgIO) ReadBatch() (int, error) {
	if m.own == nil {
		m.own = newRxStage()
	}
	return m.readInto(m.own)
}

// readInto is one recvmmsg call into stage s, split into frames — one per
// datagram, or per segment of a coalesced train — that alias s until its
// next read. It never waits: a socket with nothing queued reads as zero
// frames.
func (m *mmsgIO) readInto(s *rxStage) (int, error) {
	m.mu.RLock()
	if m.closed {
		m.mu.RUnlock()
		return 0, net.ErrClosed
	}
	m.rx = s
	s.count, s.errno = 0, 0
	m.recv(s)
	m.mu.RUnlock()
	if s.errno != 0 {
		return 0, s.errno
	}
	s.segs = s.segs[:0]
	for i := 0; i < s.count; i++ {
		data := s.bufs[i][:s.hdrs[i].len]
		size := s.segmentSize(i)
		if size <= 0 || size >= len(data) {
			s.segs = append(s.segs, rxSegment{frame: data, slot: i})
			continue
		}
		for off := 0; off < len(data); off += size {
			s.segs = append(s.segs, rxSegment{frame: data[off:min(off+size, len(data))], slot: i})
		}
	}
	return len(s.segs), nil
}

// segmentSize returns the segment size the kernel reported for slot i's
// train, or 0 for a plain datagram. UDP_GRO's is the only control message
// the batched sockets ask for, so it is the only one to look at.
func (s *rxStage) segmentSize(i int) int {
	if int(s.hdrs[i].hdr.Controllen) < syscall.CmsgLen(4) {
		return 0
	}
	ctrl := s.ctrl[i*recvCtrlSpace:]
	c := (*syscall.Cmsghdr)(unsafe.Pointer(&ctrl[0]))
	if c.Level != solUDP || c.Type != udpGRO {
		return 0
	}
	return int(*(*int32)(unsafe.Pointer(&ctrl[syscall.CmsgLen(0)])))
}

// recv is readInto's syscall; the caller holds mu shared.
func (m *mmsgIO) recv(s *rxStage) {
	for {
		// The kernel overwrites Namelen and Controllen with what it wrote
		// on each receive; reset them before reusing the headers.
		for i := range s.hdrs {
			s.hdrs[i].hdr.Namelen = syscall.SizeofSockaddrAny
			s.hdrs[i].hdr.SetControllen(recvCtrlSpace)
		}
		m.recvCalls.Add(1)
		r1, _, e := syscall.RawSyscall6(syscall.SYS_RECVMMSG, uintptr(m.fd),
			uintptr(unsafe.Pointer(&s.hdrs[0])), uintptr(len(s.hdrs)),
			0, 0, 0)
		switch e {
		case 0:
			s.count = int(r1)
			return
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			m.recvEmpty.Add(1)
			return // nothing queued: zero frames
		default:
			s.errno = e
			return
		}
	}
}

// Frame implements batchIO: received frame i, header included, aliasing
// the stage of the last read until that stage's next read.
func (m *mmsgIO) Frame(i int) []byte { return m.rx.segs[i].frame }

// SrcMatches implements batchIO without materializing a net.UDPAddr per
// frame: the raw source sockaddr of frame i's slot — shared by every segment
// of a train — is compared in place (net.IP.Equal handles the IPv4-in-IPv6
// mapped forms both ways).
func (m *mmsgIO) SrcMatches(i int, peer *peerAddr) bool {
	sa, addr := &m.rx.names[m.rx.segs[i].slot], peer.udp
	switch sa.Addr.Family {
	case syscall.AF_INET:
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		p := (*[2]byte)(unsafe.Pointer(&sa4.Port))
		return int(p[0])<<8|int(p[1]) == addr.Port && net.IP(sa4.Addr[:]).Equal(addr.IP)
	case syscall.AF_INET6:
		sa6 := (*syscall.RawSockaddrInet6)(unsafe.Pointer(sa))
		p := (*[2]byte)(unsafe.Pointer(&sa6.Port))
		return int(p[0])<<8|int(p[1]) == addr.Port && net.IP(sa6.Addr[:]).Equal(addr.IP)
	}
	return false
}

// Syscalls implements batchIO: every sendmmsg and recvmmsg issued,
// including those that found the socket not ready, and the recvmmsg calls
// that found nothing queued.
func (m *mmsgIO) Syscalls() (send, recv, recvEmpty int64) {
	return m.sendCalls.Load(), m.recvCalls.Load(), m.recvEmpty.Load()
}

// Control implements batchIO.
func (m *mmsgIO) Control(f func(fd uintptr)) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return net.ErrClosed
	}
	f(uintptr(m.fd))
	return nil
}

// Close implements batchIO. It waits for a read or write in progress, which
// gives up a wait for writability once closing is set.
func (m *mmsgIO) Close() error {
	m.closing.Store(true)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return net.ErrClosed
	}
	m.closed = true
	return syscall.Close(m.fd)
}

// WriteBatch implements batchIO: the frames leave in order through as few
// sendmmsg calls as the socket's write buffer allows, each same-peer run a
// single segmented message where the kernel offers GSO. Per-datagram errors
// (unreachable destinations and the like) skip that datagram and press on —
// losing a datagram is normal UDP behaviour, exactly as the portable path
// ignores WriteToUDP errors; a segmented message that fails that way is
// skipped whole, its frames all bound for the failing peer. A segmented
// message the kernel refuses as such is not lost: GSO goes off for the
// socket and the run is sent again, one datagram per header.
func (m *mmsgIO) WriteBatch(items []outDatagram) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return
	}
	for len(items) > 0 {
		chunk := items[:min(len(items), len(m.shdrs))]
		items = items[len(chunk):]
		for len(chunk) > 0 {
			m.wsent, m.wk, m.refused = 0, m.pack(chunk), false
			if !m.send() || !m.refused {
				break
			}
			m.gso = false
			chunk = chunk[m.sfirst[m.wsent]:]
		}
	}
}

// pack lays chunk out as send headers and returns how many it filled. With
// GSO on, consecutive frames of at most gsoMaxSegment bytes to one peer
// share a header while they have the first one's size; a shorter frame ends
// the run as its last segment.
func (m *mmsgIO) pack(chunk []outDatagram) int {
	k := 0
	for i := 0; i < len(chunk); {
		first, to := chunk[i].frame(), chunk[i].to
		j := i + 1
		if m.gso && len(first) <= gsoMaxSegment {
			for j < len(chunk) && chunk[j].to.ap == to.ap {
				size := len(chunk[j].frame())
				if size == 0 || size > len(first) {
					break
				}
				j++
				if size < len(first) {
					break
				}
			}
		}
		start := i
		i = j
		if len(first) == 0 {
			continue
		}
		namelen := m.putSockaddr(&m.snames[k], to.udp)
		if namelen == 0 {
			continue // destination unrepresentable on this socket family
		}
		for f := start; f < j; f++ {
			frame := chunk[f].frame()
			m.siov[f].Base = &frame[0]
			m.siov[f].SetLen(len(frame))
		}
		h := &m.shdrs[k].hdr
		h.Name = (*byte)(unsafe.Pointer(&m.snames[k]))
		h.Namelen = namelen
		h.Iov = &m.siov[start]
		setLen(&h.Iovlen, j-start)
		h.Control = nil
		h.SetControllen(0)
		if j-start > 1 {
			ctrl := m.sctrl[k*sendCtrlSpace:]
			c := (*syscall.Cmsghdr)(unsafe.Pointer(&ctrl[0]))
			c.Level, c.Type = solUDP, udpSegment
			c.SetLen(syscall.CmsgLen(2))
			*(*uint16)(unsafe.Pointer(&ctrl[syscall.CmsgLen(0)])) = uint16(len(first))
			h.Control = &ctrl[0]
			h.SetControllen(sendCtrlSpace)
		}
		m.sfirst[k] = start
		k++
	}
	return k
}

// send is WriteBatch's syscall; the caller holds mu shared. It reports
// false when it gave up because the socket is closing.
func (m *mmsgIO) send() bool {
	for m.wsent < m.wk {
		m.sendCalls.Add(1)
		r1, _, e := syscall.RawSyscall6(sysSendmmsg, uintptr(m.fd),
			uintptr(unsafe.Pointer(&m.shdrs[m.wsent])), uintptr(m.wk-m.wsent),
			0, 0, 0)
		switch e {
		case 0:
			m.wsent += int(r1)
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			// The send buffer is full: wait for writability, a
			// millisecond at a time so a Close is not held up, then resume.
			if m.closing.Load() {
				return false
			}
			m.waitWritable()
		default:
			// EINVAL and EIO are how the kernel refuses a segmented send
			// (udp_send_skb). Any other error is the destination's — no
			// route, a policy drop — and would fail each of the header's
			// frames alike, since they all go to the one peer.
			if m.shdrs[m.wsent].hdr.Control != nil && (e == syscall.EINVAL || e == syscall.EIO) {
				m.refused = true // WriteBatch re-sends the run unsegmented
				return true
			}
			m.wsent++ // skip the failing head message
		}
	}
	return true
}

// waitWritable sleeps until the socket is writable or a millisecond has
// passed. It is the one call of the loop's I/O that can wait, so it goes
// through Syscall6: the scheduler may run other goroutines on the loop's P
// meanwhile.
func (m *mmsgIO) waitWritable() {
	_, _, _ = syscall.Syscall6(syscall.SYS_PPOLL, uintptr(unsafe.Pointer(&m.pfd)), 1,
		uintptr(unsafe.Pointer(&m.pwait)), 0, 0, 0)
}

// putSockaddr encodes addr into sa in the socket's address family,
// returning the sockaddr length (0 if the address cannot be sent from this
// socket). IPv4 destinations on a dual-stack socket use the v4-mapped form,
// as the net package does.
func (m *mmsgIO) putSockaddr(sa *syscall.RawSockaddrAny, addr *net.UDPAddr) uint32 {
	if !m.ipv6 {
		ip4 := addr.IP.To4()
		if ip4 == nil {
			return 0
		}
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		*sa4 = syscall.RawSockaddrInet4{Family: syscall.AF_INET}
		copy(sa4.Addr[:], ip4)
		p := (*[2]byte)(unsafe.Pointer(&sa4.Port))
		p[0], p[1] = byte(addr.Port>>8), byte(addr.Port)
		return syscall.SizeofSockaddrInet4
	}
	ip16 := addr.IP.To16()
	if ip16 == nil {
		return 0
	}
	sa6 := (*syscall.RawSockaddrInet6)(unsafe.Pointer(sa))
	*sa6 = syscall.RawSockaddrInet6{Family: syscall.AF_INET6}
	copy(sa6.Addr[:], ip16)
	p := (*[2]byte)(unsafe.Pointer(&sa6.Port))
	p[0], p[1] = byte(addr.Port>>8), byte(addr.Port)
	return syscall.SizeofSockaddrInet6
}
