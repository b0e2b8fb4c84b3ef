package main

import (
	"syscall"
	"time"
)

// This shared two-core box runs 10-30 % faster or slower from one quarter of
// an hour to the next, for every workload at once, which is more than any
// bound a regression gate could use. The speedometer measures that drift with
// a fixed reference kernel — an event-heap churn over a cache-missing arena,
// the simulator's kind of work, touching no code of the repository — in short
// bursts around the repetitions. Host time that is spent computing is then
// reported at reference speed: divided by how much slower than the reference
// the bursts ran. In a 25-minute trial alternating both simulator workloads
// with bursts, a run's slowdown followed its repetition times with
// correlation 0.87 and cut their run-to-run spread from 14 % to 6 %.

// referenceBurst is a burst's duration on this box at its usual best; it only
// fixes the unit, so that scaled and raw values agree when the box is fast.
const referenceBurst = 95 * time.Millisecond

const (
	burstSteps  = 400_000
	arenaBytes  = 16 << 20 // larger than the simulator's hot set, so steps miss the caches as it does
	arenaLines  = arenaBytes / 64
	heapEntries = 1 << 16
)

type speedEvent struct {
	at   uint64
	line uint32
}

type speedometer struct {
	steps  int
	arena  []byte // mapped outside the Go heap, so the collector's pacing never sees it
	heap   []speedEvent
	rng    uint64
	bursts []time.Duration
}

func newSpeedometer(steps int) (*speedometer, error) {
	arena, err := syscall.Mmap(-1, 0, arenaBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(arena); i += 4096 {
		arena[i] = 1 // fault every page in now, not inside a burst
	}
	s := &speedometer{steps: steps, arena: arena, rng: 88172645463325252, heap: make([]speedEvent, 0, heapEntries)}
	for len(s.heap) < heapEntries {
		r := s.next()
		s.push(speedEvent{r, uint32((r >> 20) % arenaLines)})
	}
	return s, nil
}

func (s *speedometer) next() uint64 {
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	return s.rng
}

func (s *speedometer) push(e speedEvent) {
	h := append(s.heap, e)
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if h[parent].at <= h[i].at {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	s.heap = h
}

func (s *speedometer) pop() speedEvent {
	h := s.heap
	top, last := h[0], len(h)-1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		child := 2*i + 1
		if child >= last {
			break
		}
		if child+1 < last && h[child+1].at < h[child].at {
			child++
		}
		if h[i].at <= h[child].at {
			break
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
	s.heap = h
	return top
}

// burst runs the reference kernel once (about 0.1 s) and records how long it
// took: pop the earliest event, touch its cache line, reschedule it.
func (s *speedometer) burst() {
	t0 := time.Now()
	for i := 0; i < s.steps; i++ {
		e := s.pop()
		line := s.arena[int(e.line)*64 : int(e.line)*64+64]
		line[0]++
		line[63] += line[0]
		r := s.next()
		s.push(speedEvent{e.at + r%1_000_000, uint32((r >> 20) % arenaLines)})
	}
	s.bursts = append(s.bursts, time.Since(t0))
}

// slowdown is how much slower than the reference the host ran during this
// process: the median burst over the reference burst, scaled to the steps.
func (s *speedometer) slowdown() float64 {
	secs := make([]float64, len(s.bursts))
	for i, b := range s.bursts {
		secs[i] = b.Seconds()
	}
	return median(secs) / (referenceBurst.Seconds() * float64(s.steps) / burstSteps)
}
