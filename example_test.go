package heapgossip_test

import (
	"fmt"
	"log"
	"os"
	"time"

	heapgossip "repro"
)

// ExampleRunScenario runs the paper's headline comparison at toy scale:
// HEAP vs standard gossip on ms-691, where 85% of the nodes have less
// upload capacity than the stream rate.
func ExampleRunScenario() {
	for _, protocol := range []heapgossip.Protocol{heapgossip.StandardGossip, heapgossip.HEAP} {
		res, err := heapgossip.RunScenario(heapgossip.Scenario{
			Nodes:    60,
			Protocol: protocol,
			Dist:     heapgossip.MS691,
			Windows:  4,
			Seed:     1,
		})
		if err != nil {
			log.Fatal(err)
		}
		// Fraction of FEC windows viewable at a 2-second playback lag,
		// averaged over nodes.
		var share float64
		n := 0
		for i := range res.Run.Nodes {
			node := &res.Run.Nodes[i]
			if node.Excluded {
				continue
			}
			share += res.Run.JitterFreeShare(node, 2*time.Second)
			n++
		}
		fmt.Printf("%s: %.0f%% jitter-free\n", protocol, 100*share/float64(n))
	}
	// Output:
	// standard: 64% jitter-free
	// heap: 100% jitter-free
}

// ExampleRun_playback inspects the viewer experience of a single node: how
// long must the player buffer before pressing play to avoid rebuffering?
func ExampleRun_playback() {
	res, err := heapgossip.RunScenario(heapgossip.Scenario{
		Nodes:    40,
		Protocol: heapgossip.HEAP,
		Dist:     heapgossip.Ref724,
		Windows:  4,
		Seed:     2,
	})
	if err != nil {
		log.Fatal(err)
	}
	node := &res.Run.Nodes[1]
	for _, startup := range []time.Duration{0, time.Second} {
		rep := res.Run.Playback(node, startup)
		fmt.Printf("startup %v: %d stalls\n", startup, rep.Stalls)
	}
	min := res.Run.MinStartupForSmoothPlayback(node)
	fmt.Printf("smooth playback needs %v of buffering\n", min.Round(100*time.Millisecond))
	// Output:
	// startup 0s: 1 stalls
	// startup 1s: 0 stalls
	// smooth playback needs 700ms of buffering
}

// ExampleRunSweep runs standard gossip and HEAP on two capability
// distributions as one parallel grid. Every run's seed derives from its
// grid position, so the CSV is byte-identical at any worker count.
func ExampleRunSweep() {
	res, err := heapgossip.RunSweep(heapgossip.Sweep{
		Base:      heapgossip.Scenario{Nodes: 40, Windows: 3},
		Protocols: []heapgossip.Protocol{heapgossip.StandardGossip, heapgossip.HEAP},
		Dists:     []heapgossip.Distribution{heapgossip.Ref691, heapgossip.MS691},
		BaseSeed:  1,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := res.WriteCSV(os.Stdout); err != nil {
		log.Fatal(err)
	}
	// Output:
	// protocol,dist,nodes,fanout,churn,variant,replicas,measured_nodes,jf_mean,jf_p10,lag_p50_s,lag_p90_s,never_frac,minlag_jf_mean_s,usage_mean,msgs_per_run
	// standard,ref-691,40,7,0,,1,39,1,1,2.34761,3.25885,0,1.81319,0.738357,25781
	// standard,ms-691,40,7,0,,1,39,1,1,1.93489,2.22119,0,1.6143,0.746311,26607
	// heap,ref-691,40,7,0,,1,39,1,1,1.33893,1.49426,0,1.12643,0.687782,40500
	// heap,ms-691,40,7,0,,1,39,1,1,1.31125,1.70051,0,1.12998,0.682067,40612
}
