package metrics

import (
	"encoding/csv"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/stream"
	"repro/internal/wire"
)

func csvRun(t *testing.T) *Run {
	t.Helper()
	g := stream.Geometry{RateBps: 8000, PacketBytes: 100, DataPerWindow: 3, ParityPerWindow: 2}
	total := g.TotalPackets(1)
	pub := make([]time.Duration, total)
	for id := 0; id < total; id++ {
		pub[id] = g.PublishOffset(wire.PacketID(id))
	}
	recv := make([]time.Duration, total)
	for id := range recv {
		recv[id] = pub[id] + 10*time.Millisecond
	}
	recv[4] = stream.NotReceived
	return &Run{
		Geometry:  g,
		Windows:   1,
		PublishAt: pub,
		Nodes: []NodeRecord{
			{Node: 0, Class: "src", CapKbps: 9999, Recv: append([]time.Duration(nil), pub...), Excluded: true},
			{Node: 1, Class: "poor", CapKbps: 256, Recv: recv},
		},
	}
}

func parseCSV(t *testing.T, s string) [][]string {
	t.Helper()
	recs, err := csv.NewReader(strings.NewReader(s)).ReadAll()
	if err != nil {
		t.Fatalf("invalid csv: %v\n%s", err, s)
	}
	return recs
}

func TestWriteSeriesCSV(t *testing.T) {
	var sb strings.Builder
	series := []Series{
		{Name: "heap", Points: []Point{{1, 50}, {2, 90}}},
		{Name: "std", Points: []Point{{3, 10}}},
	}
	if err := WriteSeriesCSV(&sb, series); err != nil {
		t.Fatal(err)
	}
	recs := parseCSV(t, sb.String())
	if len(recs) != 4 {
		t.Fatalf("rows = %d, want 4", len(recs))
	}
	if recs[0][0] != "series" || recs[1][0] != "heap" || recs[3][0] != "std" {
		t.Fatalf("unexpected rows: %v", recs)
	}
}

func TestWriteNodeMetricsCSV(t *testing.T) {
	run := csvRun(t)
	crashed := run.Nodes[1]
	crashed.Node, crashed.Crashed = 2, true
	run.Nodes = append(run.Nodes, crashed)
	q := run.Quality()
	var sb strings.Builder
	err := WriteNodeMetricsCSV(&sb, q, map[string][]float64{
		"received":   q.Received(),
		"jitterfree": q.JitterFree(time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := parseCSV(t, sb.String())
	// Header + node 1 only (node 0 excluded, node 2 crashed).
	if len(recs) != 2 {
		t.Fatalf("rows = %d, want 2:\n%v", len(recs), recs)
	}
	// Columns sorted: node,class,cap_kbps,jitterfree,received.
	if recs[0][3] != "jitterfree" || recs[0][4] != "received" {
		t.Fatalf("header = %v", recs[0])
	}
	if recs[1][0] != "1" || recs[1][1] != "poor" || recs[1][4] != "0.8" {
		t.Fatalf("row = %v", recs[1])
	}
	if err := WriteNodeMetricsCSV(io.Discard, q, map[string][]float64{"short": nil}); err == nil {
		t.Fatal("a column with fewer values than counted nodes was written")
	}
}

func TestWriteDeliveryCSV(t *testing.T) {
	run := csvRun(t)
	var sb strings.Builder
	if err := WriteDeliveryCSV(&sb, run); err != nil {
		t.Fatal(err)
	}
	recs := parseCSV(t, sb.String())
	// Header + 4 received packets of node 1 (packet 4 missing, node 0 excluded).
	if len(recs) != 5 {
		t.Fatalf("rows = %d, want 5:\n%v", len(recs), recs)
	}
	if recs[1][4] != "0.010000" {
		t.Fatalf("lag cell = %q, want 0.010000", recs[1][4])
	}
}
