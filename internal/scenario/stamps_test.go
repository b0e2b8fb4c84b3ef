package scenario

import (
	"testing"
	"time"

	"repro/internal/stream"
)

// TestPublishTimesMatchSourceStamps validates the analysis pipeline's core
// assumption: the publish times the metrics layer derives from the stream
// geometry equal the stamps the source actually wrote into the events.
func TestPublishTimesMatchSourceStamps(t *testing.T) {
	cfg := Config{
		Nodes:         20,
		Unconstrained: true,
		Windows:       3,
		Geometry: stream.Geometry{
			RateBps: 551_000, PacketBytes: 1316,
			DataPerWindow: 25, ParityPerWindow: 3,
		},
		Seed:        21,
		StreamStart: 2 * time.Second,
		Drain:       15 * time.Second,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := res.Config.Geometry.TotalPackets(res.Config.Windows)
	checked := 0
	for i := 1; i < len(res.Run.Nodes); i++ {
		node := &res.Run.Nodes[i]
		// Compare receiver i's arrival times with the PublishAt array built
		// from the geometry formula.
		for id := 0; id < total; id++ {
			at := node.Recv[id]
			if at == stream.NotReceived {
				continue
			}
			// Receivers keep arrival times only, not the events' stamps,
			// so a relay's record is checked by lag non-negativity; the
			// source's record below pins the formula exactly.
			if at < res.Run.PublishAt[id] {
				t.Fatalf("node %d received packet %d at %v before its derived publish time %v",
					i, id, at, res.Run.PublishAt[id])
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no deliveries to check")
	}
	// The source's own record delivers each packet exactly at publish time,
	// which pins the formula exactly (zero lag for every packet).
	src := &res.Run.Nodes[0]
	for id := 0; id < total; id++ {
		if src.Recv[id] != res.Run.PublishAt[id] {
			t.Fatalf("source record for packet %d: delivered %v, derived publish %v",
				id, src.Recv[id], res.Run.PublishAt[id])
		}
	}
}
