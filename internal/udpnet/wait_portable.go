package udpnet

import (
	"sync"
	"time"
)

// portWaiter is the loop's wait where the platform offers no readiness call
// the loop can sleep in (batch_fallback.go): one reader goroutine per
// socket makes the blocking portable read, hands the filled batch to the
// loop and waits until the loop has consumed it, so the loop still decodes
// and dispatches every frame itself. The loop waits on the reader channel,
// a poke channel and one timer.
type portWaiter struct {
	ready chan uint32
	pokes chan struct{}
	timer *time.Timer

	mu      sync.Mutex
	readers map[uint32]*portReader

	wakes wakeCounts
}

type portReader struct {
	count int           // frames of the batch handed over, read by the loop after the hand-off
	next  chan struct{} // the loop consumed the batch: read the next
	stop  chan struct{} // closed by remove
}

func newPortWaiter() *portWaiter {
	return &portWaiter{
		ready:   make(chan uint32),
		pokes:   make(chan struct{}, 1),
		readers: make(map[uint32]*portReader),
	}
}

func (w *portWaiter) add(n *Node, tok uint32) error {
	r := &portReader{next: make(chan struct{}), stop: make(chan struct{})}
	w.mu.Lock()
	w.readers[tok] = r
	w.mu.Unlock()
	go r.run(n.bio, tok, w.ready)
	return nil
}

// run exits once remove has stopped it, at the latest when the socket's
// close ends its read.
func (r *portReader) run(bio batchIO, tok uint32, ready chan<- uint32) {
	for {
		count, err := bio.ReadBatch()
		if err != nil {
			return // closed
		}
		r.count = count
		select {
		case ready <- tok:
		case <-r.stop:
			return
		}
		select {
		case <-r.next:
		case <-r.stop:
			return
		}
	}
}

func (w *portWaiter) reader(tok uint32) *portReader {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.readers[tok]
}

func (w *portWaiter) remove(_ *Node, tok uint32) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if r := w.readers[tok]; r != nil {
		close(r.stop)
		delete(w.readers, tok)
	}
}

func (w *portWaiter) wait(until time.Time, ready []uint32) []uint32 {
	var expired <-chan time.Time
	timeout := time.Until(until)
	switch {
	case !until.IsZero() && timeout <= 0:
		select {
		case tok := <-w.ready:
			ready = append(ready, tok)
		default:
		}
		return ready
	case !until.IsZero():
		if w.timer == nil {
			w.timer = time.NewTimer(timeout)
		} else {
			w.timer.Reset(timeout)
		}
		w.wakes.timerArms.Add(1)
		expired = w.timer.C
	}
	select {
	case tok := <-w.ready:
		ready = append(ready, tok)
	case <-w.pokes:
	default:
		w.wakes.parks.Add(1)
		select {
		case tok := <-w.ready:
			ready = append(ready, tok)
		case <-w.pokes:
		case <-expired:
		}
	}
	if w.timer != nil {
		w.timer.Stop()
	}
	return ready
}

func (w *portWaiter) read(_ *Node, tok uint32) (int, error) {
	if r := w.reader(tok); r != nil {
		return r.count, nil
	}
	return 0, nil
}

func (w *portWaiter) consumed(tok uint32) {
	if r := w.reader(tok); r != nil {
		select {
		case r.next <- struct{}{}:
		case <-r.stop:
		}
	}
}

func (w *portWaiter) poke() {
	w.wakes.pokes.Add(1)
	select {
	case w.pokes <- struct{}{}:
	default:
	}
}

func (w *portWaiter) counts() *wakeCounts { return &w.wakes }

func (w *portWaiter) close() {}
