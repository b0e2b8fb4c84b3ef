package metrics

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"
)

// WriteSeriesCSV writes named (x, y) series in long format:
// series,x,y — one row per point. Suitable for gnuplot/pandas replotting of
// any figure.
func WriteSeriesCSV(w io.Writer, series []Series) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"series", "x", "y"}); err != nil {
		return err
	}
	for _, s := range series {
		for _, p := range s.Points {
			rec := []string{
				s.Name,
				strconv.FormatFloat(p.X, 'g', -1, 64),
				strconv.FormatFloat(p.Y, 'g', -1, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteNodeMetricsCSV writes one row per node the read-out counts, in its
// node order, with named metric columns: each column holds one value per
// counted node in that order, as Quality's per-node samples do.
func WriteNodeMetricsCSV(w io.Writer, q *Quality, columns map[string][]float64) error {
	cw := csv.NewWriter(w)
	names := make([]string, 0, len(columns))
	for name, col := range columns {
		if len(col) != q.Len() {
			return fmt.Errorf("metrics: column %q has %d values for %d nodes", name, len(col), q.Len())
		}
		names = append(names, name)
	}
	sort.Strings(names)
	header := append([]string{"node", "class", "cap_kbps"}, names...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for i, nq := range q.nodes {
		rec := make([]string, 0, len(header))
		rec = append(rec,
			strconv.Itoa(int(nq.rec.Node)),
			nq.rec.Class,
			strconv.FormatUint(uint64(nq.rec.CapKbps), 10))
		for _, name := range names {
			rec = append(rec, strconv.FormatFloat(columns[name][i], 'g', -1, 64))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteDeliveryCSV dumps the raw delivery matrix (one row per node-packet
// pair that arrived): node,packet,publish_s,recv_s,lag_s. This is the
// complete ground truth of a run; everything else derives from it.
func WriteDeliveryCSV(w io.Writer, run *Run) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"node", "packet", "publish_s", "recv_s", "lag_s"}); err != nil {
		return err
	}
	for i := range run.Nodes {
		n := &run.Nodes[i]
		if n.Excluded {
			continue
		}
		for id := range n.Recv {
			lag := run.Lag(n, id)
			if lag == Never {
				continue
			}
			rec := []string{
				strconv.Itoa(int(n.Node)),
				strconv.Itoa(id),
				fmtSeconds(run.PublishAt[id]),
				fmtSeconds(n.Recv[id]),
				fmtSeconds(lag),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

func fmtSeconds(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'f', 6, 64)
}
