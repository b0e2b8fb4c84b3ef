//go:build linux

// Batched-syscall I/O for Linux: sendmmsg(2)/recvmmsg(2) over the socket's
// raw file descriptor, amortizing one syscall across up to ioBatchMax
// datagrams in each direction. The syscalls are issued directly via
// syscall.Syscall6 with a hand-rolled mmsghdr layout (struct msghdr plus
// the kernel-written msg_len) so the module stays free of dependencies
// outside the standard library; the portable one-syscall-per-datagram path
// (singleIO) serves the inverse build tag (batch_fallback.go) and
// Config.DisableBatch.

package udpnet

import (
	"errors"
	"net"
	"runtime"
	"syscall"
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

// mmsghdr mirrors the kernel's struct mmsghdr: the embedded msghdr plus the
// per-message byte count the kernel writes back. Go's trailing struct
// padding matches C's on every GOARCH because syscall.Msghdr carries the
// arch-correct field layout.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
}

// mmsgIO implements batchIO over one UDP socket's raw descriptor. The
// receive staging buffers are the free list the read loop recycles: they
// are filled by every recvmmsg call and never escape (messages are decoded
// in place and dispatched before the next call; only Serve bodies, whose
// payloads handlers keep, are copied out first), so one
// ioBatchMax×maxDatagram allocation serves the node's whole lifetime. So do
// the two RawConn callbacks: they are method values bound once, and talk to
// their callers through the fields beside them, so a wakeup captures nothing.
type mmsgIO struct {
	rc   syscall.RawConn
	ipv6 bool // socket family: encode destinations to match

	// Receive side, allocated once. recvFn reports through rcount/rerrno;
	// only the read loop calls ReadBatch.
	rhdrs  []mmsghdr
	riov   []syscall.Iovec
	rbufs  [][]byte
	rnames []syscall.RawSockaddrAny
	recvFn func(fd uintptr) bool
	rcount int
	rerrno syscall.Errno

	// Send side, allocated once; headers are rebuilt per WriteBatch. sendFn
	// transmits shdrs[wsent:wk]; only the paced sender calls WriteBatch.
	shdrs     []mmsghdr
	siov      []syscall.Iovec
	snames    []syscall.RawSockaddrAny
	sendFn    func(fd uintptr) bool
	wsent, wk int
}

// newBatchIO wires the batched-syscall path over conn. An error (no raw
// descriptor view, no syscall number) makes the caller keep singleIO.
func newBatchIO(conn *net.UDPConn) (batchIO, error) {
	if sysSendmmsg == 0 {
		return nil, errors.New("udpnet: no sendmmsg number for this GOARCH")
	}
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	local, _ := conn.LocalAddr().(*net.UDPAddr)
	m := &mmsgIO{
		rc:     rc,
		ipv6:   local == nil || local.IP.To4() == nil,
		rhdrs:  make([]mmsghdr, ioBatchMax),
		riov:   make([]syscall.Iovec, ioBatchMax),
		rbufs:  make([][]byte, ioBatchMax),
		rnames: make([]syscall.RawSockaddrAny, ioBatchMax),
		shdrs:  make([]mmsghdr, ioBatchMax),
		siov:   make([]syscall.Iovec, ioBatchMax),
		snames: make([]syscall.RawSockaddrAny, ioBatchMax),
	}
	m.recvFn, m.sendFn = m.recv, m.send
	backing := make([]byte, ioBatchMax*maxDatagram)
	for i := range m.rhdrs {
		buf := backing[i*maxDatagram : (i+1)*maxDatagram]
		m.rbufs[i] = buf
		m.riov[i].Base = &buf[0]
		m.riov[i].SetLen(len(buf))
		m.rhdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&m.rnames[i]))
		m.rhdrs[i].hdr.Namelen = syscall.SizeofSockaddrAny
		m.rhdrs[i].hdr.Iov = &m.riov[i]
		m.rhdrs[i].hdr.Iovlen = 1
	}
	return m, nil
}

// ReadBatch implements batchIO: one recvmmsg call per wakeup, blocking (via
// the runtime poller) until at least one datagram is available.
func (m *mmsgIO) ReadBatch() (int, error) {
	m.rcount, m.rerrno = 0, 0
	if err := m.rc.Read(m.recvFn); err != nil {
		return 0, err // socket closed
	}
	if m.rerrno != 0 {
		return 0, m.rerrno
	}
	return m.rcount, nil
}

// recv is ReadBatch's RawConn callback.
func (m *mmsgIO) recv(fd uintptr) bool {
	for {
		// The kernel overwrites Namelen with the actual source-address
		// size on each receive; reset it before reusing the headers.
		for i := range m.rhdrs {
			m.rhdrs[i].hdr.Namelen = syscall.SizeofSockaddrAny
		}
		r1, _, e := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
			uintptr(unsafe.Pointer(&m.rhdrs[0])), uintptr(len(m.rhdrs)),
			0, 0, 0)
		switch e {
		case 0:
			m.rcount = int(r1)
			return true
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false // runtime poller waits for readability
		default:
			m.rerrno = e
			return true
		}
	}
}

// Frame implements batchIO: received datagram i, header included, aliasing
// the staging buffer until the next ReadBatch.
func (m *mmsgIO) Frame(i int) []byte { return m.rbufs[i][:m.rhdrs[i].len] }

// SrcMatches implements batchIO without materializing a net.UDPAddr per
// datagram: the raw source sockaddr is compared in place (net.IP.Equal
// handles the IPv4-in-IPv6 mapped forms both ways).
func (m *mmsgIO) SrcMatches(i int, peer *peerAddr) bool {
	sa, addr := &m.rnames[i], peer.udp
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

// WriteBatch implements batchIO: the frames leave in order through as few
// sendmmsg calls as the socket's write buffer allows. Per-datagram errors
// (unreachable destinations and the like) skip that datagram and press on —
// losing a datagram is normal UDP behaviour, exactly as the portable path
// ignores WriteToUDP errors.
func (m *mmsgIO) WriteBatch(items []outDatagram) {
	for len(items) > 0 {
		chunk := items
		if len(chunk) > len(m.shdrs) {
			chunk = chunk[:len(m.shdrs)]
		}
		items = items[len(chunk):]
		k := 0
		for i := range chunk {
			frame := chunk[i].frame()
			if len(frame) == 0 {
				continue
			}
			namelen := m.putSockaddr(&m.snames[k], chunk[i].to.udp)
			if namelen == 0 {
				continue // destination unrepresentable on this socket family
			}
			m.siov[k].Base = &frame[0]
			m.siov[k].SetLen(len(frame))
			m.shdrs[k].hdr.Name = (*byte)(unsafe.Pointer(&m.snames[k]))
			m.shdrs[k].hdr.Namelen = namelen
			m.shdrs[k].hdr.Iov = &m.siov[k]
			m.shdrs[k].hdr.Iovlen = 1
			k++
		}
		m.wsent, m.wk = 0, k
		m.rc.Write(m.sendFn)
	}
}

// send is WriteBatch's RawConn callback.
func (m *mmsgIO) send(fd uintptr) bool {
	for m.wsent < m.wk {
		r1, _, e := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&m.shdrs[m.wsent])), uintptr(m.wk-m.wsent),
			0, 0, 0)
		switch e {
		case 0:
			m.wsent += int(r1)
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false // wait for writability, then resume
		default:
			m.wsent++ // skip the failing head datagram
		}
	}
	return true
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
