package aggregation

import (
	"time"

	"repro/internal/env"
	"repro/internal/membership"
	"repro/internal/wire"
)

// AveragerConfig parameterizes the push-pull averaging protocol.
type AveragerConfig struct {
	// InitialValue is this node's starting value. For system-size
	// estimation, exactly one node starts at 1 and the rest at 0; the
	// average then converges to 1/n everywhere.
	InitialValue float64
	// Period is the exchange period. Default 200 ms.
	Period time.Duration
	// Sampler provides random exchange partners.
	Sampler membership.Sampler
}

// Averager implements the push-pull epidemic averaging protocol of Jelasity,
// Montresor and Babaoglu (TOCS 2005), which the paper cites ([13]) as the
// way to continuously approximate system size. Every period a node picks a
// random partner; both replace their value with the pair's mean. The
// variance of values across the system decays exponentially, so after a few
// dozen rounds every node holds (almost) the global average.
//
// Averager implements env.Handler for AvgPush/AvgReply messages.
type Averager struct {
	cfg    AveragerConfig
	rt     env.Runtime
	value  float64
	ticker *env.Ticker

	// peerScratch is the per-tick sampling buffer.
	peerScratch []wire.NodeID

	// push and reply are the one message of each kind this node sends: Send
	// keeps nothing (env.Runtime.Send).
	push  wire.AvgPush
	reply wire.AvgReply

	// Exchanges counts completed (replied) exchanges at this node.
	Exchanges int
}

var _ env.Handler = (*Averager)(nil)

// NewAverager builds an Averager.
func NewAverager(cfg AveragerConfig) *Averager {
	if cfg.Period == 0 {
		cfg.Period = 200 * time.Millisecond
	}
	if cfg.Sampler == nil {
		panic("aggregation: nil sampler")
	}
	return &Averager{cfg: cfg, value: cfg.InitialValue}
}

// Start implements env.Handler.
func (a *Averager) Start(rt env.Runtime) {
	a.rt = rt
	phase := time.Duration(rt.Rand().Int63n(int64(a.cfg.Period)))
	a.ticker = env.NewTicker(rt, phase, a.cfg.Period, a.tick)
}

// Stop implements env.Handler.
func (a *Averager) Stop() {
	if a.ticker != nil {
		a.ticker.Stop()
	}
}

func (a *Averager) tick() {
	a.peerScratch = a.cfg.Sampler.AppendPeers(a.peerScratch[:0], a.rt.Rand(), 1)
	if len(a.peerScratch) == 0 {
		return
	}
	a.push = wire.AvgPush{Value: a.value, Weight: 1}
	a.rt.Send(a.peerScratch[0], &a.push)
}

// Receive implements env.Handler.
func (a *Averager) Receive(from wire.NodeID, m wire.Message) {
	switch msg := m.(type) {
	case *wire.AvgPush:
		// Reply with our current value, then both converge to the mean.
		a.reply = wire.AvgReply{Value: a.value, Weight: 1}
		a.rt.Send(from, &a.reply)
		a.value = (a.value + msg.Value) / 2
		a.Exchanges++
	case *wire.AvgReply:
		// Note: if our push was lost, no reply arrives and no state moved;
		// if the reply is lost, the responder moved and we did not — a small
		// transient asymmetry that fresh rounds wash out.
		a.value = (a.value + msg.Value) / 2
		a.Exchanges++
	}
}

// Value returns the node's current estimate of the global average.
func (a *Averager) Value() float64 { return a.value }

// SizeEstimate interprets the value as 1/n and returns the implied system
// size. It returns 0 until the value is meaningfully positive.
func (a *Averager) SizeEstimate() float64 {
	if a.value <= 1e-12 {
		return 0
	}
	return 1 / a.value
}
