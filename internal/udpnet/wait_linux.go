//go:build linux

// The loop's wait on Linux: one epoll instance over every node's socket,
// an eventfd for pokes and a timerfd for the next due time. Readiness is
// level-triggered, so a socket the loop read only part of is reported again
// by the next wait, and a read of a reported socket finds its datagrams
// there (the loop is the socket's one reader).
//
// The loop does not sleep in epoll_wait itself: the epoll descriptor is
// registered with the Go runtime's poller, and the loop goroutine parks
// there until it turns readable. A goroutine blocked in a raw syscall is
// invisible to the scheduler, so while the loop slept the runtime's own
// timers fell back to its poller's millisecond granularity — a 20 µs sleep
// elsewhere in the process took a millisecond. Parked in the poller, the
// loop wakes the way every other goroutine does, and the scheduler keeps
// servicing timers as before. The timerfd, not a runtime timer, carries the
// deadline, so the wake time is the kernel's nanosecond one.

package udpnet

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// itimerspec is struct itimerspec in the layout timerfd_settime(2) takes on
// this architecture (syscall.Timespec has the arch's time_t width).
type itimerspec struct {
	interval, value syscall.Timespec
}

const (
	tokPoke  = 0 // readiness tokens of the waiter's own descriptors;
	tokTimer = 1 // nodes' tokens start above them

	epollET = 1 << 31 // EPOLLET, whose syscall constant is negative on some GOARCHes
)

type epollWaiter struct {
	epfd, evfd, tfd int
	file            *os.File // epfd, as the runtime poller watches it
	rc              syscall.RawConn
	parkFn          func(fd uintptr) bool // w.pollOrPark, bound once

	events [64]syscall.EpollEvent
	count  int
	armed  time.Time // the deadline the timerfd holds; zero: disarmed
	spec   itimerspec
	one    [8]byte // the eventfd increment, in host byte order
	rx     *rxStage
	wakes  wakeCounts
}

func newWaiter() (waiter, error) {
	if lastTok < tokTimer {
		lastTok = tokTimer
	}
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, err
	}
	w := &epollWaiter{epfd: epfd, evfd: -1, tfd: -1}
	fail := func(err error) (waiter, error) {
		w.close()
		return nil, err
	}
	evfd, _, e := syscall.RawSyscall(syscall.SYS_EVENTFD2, 0, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if e != 0 {
		return fail(e)
	}
	w.evfd = int(evfd)
	tfd, _, e := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, 1 /* CLOCK_MONOTONIC */, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if e != 0 {
		return fail(e)
	}
	w.tfd = int(tfd)
	*(*uint64)(unsafe.Pointer(&w.one)) = 1
	// Edge-triggered: every poke and every expiry is an event of its own,
	// so neither counter needs reading back.
	for fd, tok := range map[int]int32{w.evfd: tokPoke, w.tfd: tokTimer} {
		ev := syscall.EpollEvent{Events: syscall.EPOLLIN | epollET, Fd: tok}
		if err := syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, fd, &ev); err != nil {
			return fail(err)
		}
	}
	// A non-blocking descriptor is one os.NewFile hands to the poller.
	if err := syscall.SetNonblock(epfd, true); err != nil {
		return fail(err)
	}
	w.file = os.NewFile(uintptr(epfd), "udpnet-epoll")
	if w.rc, err = w.file.SyscallConn(); err != nil {
		return fail(err)
	}
	w.parkFn = w.pollOrPark
	return w, nil
}

func (w *epollWaiter) add(n *Node, tok uint32) error {
	return w.ctl(n, syscall.EPOLL_CTL_ADD, tok)
}

func (w *epollWaiter) remove(n *Node, tok uint32) {
	_ = w.ctl(n, syscall.EPOLL_CTL_DEL, tok)
}

func (w *epollWaiter) ctl(n *Node, op int, tok uint32) error {
	var err error
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN, Fd: int32(tok)}
	if cerr := n.bio.Control(func(fd uintptr) { err = syscall.EpollCtl(w.epfd, op, int(fd), &ev) }); cerr != nil {
		return cerr
	}
	return err
}

// poll takes the events already pending, without waiting; as the runtime
// poller's read callback it reports whether there were any.
func (w *epollWaiter) poll(uintptr) bool {
	w.count = 0
	for {
		count, _, e := syscall.RawSyscall6(syscall.SYS_EPOLL_PWAIT, uintptr(w.epfd),
			uintptr(unsafe.Pointer(&w.events[0])), uintptr(len(w.events)), 0, 0, 0)
		switch e {
		case 0:
			w.count = int(count)
			return w.count > 0
		case syscall.EINTR:
			continue
		default:
			return true // a broken descriptor: let the loop turn rather than park for good
		}
	}
}

// pollOrPark is poll as the runtime poller's read callback: the poller
// parks the loop each time it reports nothing pending.
func (w *epollWaiter) pollOrPark(fd uintptr) bool {
	if w.poll(fd) {
		return true
	}
	w.wakes.parks.Add(1)
	return false
}

func (w *epollWaiter) wait(until time.Time, ready []uint32) []uint32 {
	if !until.IsZero() && !until.After(time.Now()) {
		w.poll(0)
	} else {
		w.arm(until)
		_ = w.rc.Read(w.parkFn) // polls first, and parks only if nothing is pending
	}
	for _, ev := range w.events[:w.count] {
		switch tok := uint32(ev.Fd); tok {
		case tokPoke:
		case tokTimer:
			w.armed = time.Time{}
		default:
			ready = append(ready, tok)
		}
	}
	return ready
}

// arm points the timerfd at until, or disarms it for the zero Time, unless
// it already holds that deadline.
func (w *epollWaiter) arm(until time.Time) {
	if until.Equal(w.armed) {
		return
	}
	w.armed = until
	w.spec.value = syscall.Timespec{}
	if !until.IsZero() {
		w.spec.value = syscall.NsecToTimespec(int64(max(time.Until(until), 1)))
	}
	_, _, _ = syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(w.tfd), 0,
		uintptr(unsafe.Pointer(&w.spec)), 0, 0, 0)
	w.wakes.timerArms.Add(1)
}

// read is one batched (or, under DisableBatch, portable) read of a socket
// epoll reported readable, which therefore does not wait. Every batched
// socket reads into the waiter's one stage: the loop dispatches a read
// before it takes the next.
func (w *epollWaiter) read(n *Node, _ uint32) (int, error) {
	m, ok := n.bio.(*mmsgIO)
	if !ok {
		return n.bio.ReadBatch()
	}
	if w.rx == nil {
		w.rx = newRxStage()
	}
	return m.readInto(w.rx)
}

func (w *epollWaiter) consumed(uint32) {}

// poke adds one to the eventfd. The descriptor is non-blocking, so the write
// is raw: it cannot wait (a full counter fails with EAGAIN, and a loop that
// has that many pokes pending wakes anyway).
func (w *epollWaiter) poke() {
	_, _, _ = syscall.RawSyscall(syscall.SYS_WRITE, uintptr(w.evfd), uintptr(unsafe.Pointer(&w.one[0])), uintptr(len(w.one)))
	w.wakes.pokes.Add(1)
}

func (w *epollWaiter) counts() *wakeCounts { return &w.wakes }

func (w *epollWaiter) close() {
	for _, fd := range []int{w.evfd, w.tfd} {
		if fd >= 0 {
			syscall.Close(fd)
		}
	}
	if w.file != nil {
		w.file.Close()
	} else {
		syscall.Close(w.epfd)
	}
}
