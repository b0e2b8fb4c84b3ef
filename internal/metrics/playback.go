package metrics

import (
	"time"

	"repro/internal/stream"
)

// PlaybackReport describes the viewer experience of one node for a given
// startup delay (the paper's footnote 8 distinguishes startup delay from
// stream lag; this model connects them).
//
// The player starts rendering the first window startup-delay after its
// publication and then consumes one window per window duration. A window
// that is not decodable when its play-out instant arrives either stalls the
// player until it becomes decodable (rebuffering) or, if it never becomes
// decodable, is skipped (jitter).
type PlaybackReport struct {
	// Startup is the startup delay the report was computed for.
	Startup time.Duration
	// Stalls is the number of rebuffering pauses.
	Stalls int
	// StallTime is the total paused time.
	StallTime time.Duration
	// SkippedWindows counts windows never decodable (skipped with jitter).
	SkippedWindows int
	// FinalLag is the effective stream lag at the end: Startup plus all
	// accumulated stall time.
	FinalLag time.Duration
}

// windowDecodeTimes returns, per window, the absolute time the window
// becomes fully decodable (the DataPerWindow-th earliest arrival), or Never.
func (r *Run) windowDecodeTimes(n *NodeRecord) []time.Duration {
	return r.perWindowKth(func(id int) time.Duration {
		if at := n.Recv[id]; at != stream.NotReceived {
			return at
		}
		return Never
	})
}

// Playback simulates a player with the given startup delay at node n and
// returns its experience. The play-out instant of window w is
//
//	publish(last packet of w) + startup + accumulated stalls
//
// i.e. a window can be rendered only once it could have been fully
// published; stalls push every subsequent window back (live viewing falls
// further behind the broadcast, exactly like real players).
func (r *Run) Playback(n *NodeRecord, startup time.Duration) PlaybackReport {
	g := r.Geometry
	decode := r.windowDecodeTimes(n)
	rep := PlaybackReport{Startup: startup}
	var stallAccum time.Duration
	for w := 0; w < r.Windows; w++ {
		// The window's content is complete at the publish time of its last
		// packet; the player renders it startup (+stalls) later.
		lastID := g.PacketIDAt(w, g.PacketsPerWindow()-1)
		playAt := r.PublishAt[lastID] + startup + stallAccum
		switch {
		case decode[w] == Never:
			rep.SkippedWindows++
		case decode[w] <= playAt:
			// On time.
		default:
			stall := decode[w] - playAt
			rep.Stalls++
			rep.StallTime += stall
			stallAccum += stall
		}
	}
	rep.FinalLag = startup + stallAccum
	return rep
}

// MinStartupForSmoothPlayback returns the smallest startup delay with which
// the player neither stalls nor skips (Never if some window is never
// decodable). This is the viewer-facing equivalent of MinLagForJitterFree.
func (r *Run) MinStartupForSmoothPlayback(n *NodeRecord) time.Duration {
	g := r.Geometry
	decode := r.windowDecodeTimes(n)
	var need time.Duration
	for w := 0; w < r.Windows; w++ {
		if decode[w] == Never {
			return Never
		}
		lastID := g.PacketIDAt(w, g.PacketsPerWindow()-1)
		if d := decode[w] - r.PublishAt[lastID]; d > need {
			need = d
		}
	}
	if need < 0 {
		need = 0
	}
	return need
}
