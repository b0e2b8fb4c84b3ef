package heapgossip

import (
	"runtime"
	"testing"
	"time"
)

// headlineAllocCeiling bounds the headline scenario's allocation count.
// History: the map-backed engine + unpooled simulator allocated 1,424,074
// objects per run; the pooled event heap, dense protocol tables, and
// fire-and-forget timers brought it to ~446k (443,030 when measured last);
// senders reusing one message per kind, with the simulator copying in-flight
// messages into its per-shard pools, brought it to 25,856 — setup, not the
// event loop. The ceiling leaves ~35% headroom for benign drift while still
// failing loudly if a per-message allocation ever creeps back in.
const headlineAllocCeiling = 35_000

// TestHeadlineAllocBudget fails when the headline scenario allocates more
// than the checked-in ceiling — the regression guard for the zero-allocation
// hot path. Skipped under -short (it runs a full simulated experiment).
func TestHeadlineAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget check runs a full experiment; skipped in -short")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := RunScenario(Scenario{
		Nodes:       120,
		Protocol:    HEAP,
		Dist:        Ref691,
		Windows:     10,
		Seed:        17,
		StreamStart: 5 * time.Second,
		Drain:       30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	t.Logf("headline scenario: %d allocs, %d events (%.2f allocs/event), %d msgs",
		allocs, res.NetStats.EventsProcessed,
		float64(allocs)/float64(res.NetStats.EventsProcessed), res.NetStats.MsgsSent)
	if allocs > headlineAllocCeiling {
		t.Fatalf("headline scenario allocated %d objects, ceiling %d — the pooled hot path has regressed",
			allocs, headlineAllocCeiling)
	}
}
