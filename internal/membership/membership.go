// Package membership provides the peer views from which gossip protocols
// draw their uniformly random communication partners.
//
// The paper (like its experimental system) assumes every node can select f
// uniformly random nodes (Algorithm 1, selectNodes). View implements that
// directly over a full membership list, with O(k) sampling without
// replacement and support for removals so that churn scenarios can model
// delayed failure notification (§3.6: survivors learn about a failure an
// average of 10 s after it happened).
//
// As an extension beyond the paper's simplification, Cyclon implements a
// gossip-based peer-sampling service (shuffling partial views) that provides
// the same Sampler interface without any global membership knowledge.
//
// A node draws through one Selector over its View or Cyclon: the single
// place where the draw is filtered (quarantine) or weighted (the source-bias
// ablation), for every layer that picks peers.
package membership

import (
	"fmt"
	"math/rand"

	"repro/internal/wire"
)

// Sampler yields (approximately) uniformly random peers. Implementations
// must never return the node's own id or duplicates within one call.
type Sampler interface {
	// AppendPeers appends up to k distinct peers chosen uniformly at random
	// to dst and returns the extended slice, so hot loops reuse one scratch
	// buffer per round (pass nil for a fresh slice). Fewer than k are
	// appended when the view is smaller than k.
	AppendPeers(dst []wire.NodeID, rng *rand.Rand, k int) []wire.NodeID
	// AppendSplit is the locality-aware draw used by hierarchical
	// dissemination: up to kIntra distinct peers from the node's own
	// cluster and kInter from other clusters, with unfilled budget spilling
	// across the boundary so the total matches a uniform draw of
	// kIntra+kInter whenever enough peers exist. A sampler without clusters
	// answers with that uniform draw.
	AppendSplit(dst []wire.NodeID, rng *rand.Rand, kIntra, kInter int) []wire.NodeID
}

// View is a mutable full-membership view for one node. It is not safe for
// concurrent use; in the simulator all accesses happen on the event loop.
//
// A view built with NewClusterView additionally partitions its peers by
// topology cluster, which AppendSplit draws from; AppendPeers is unaffected
// by the partition.
type View struct {
	self  wire.NodeID
	peers []wire.NodeID
	index posTable // peer -> position in peers

	// Cluster partition (NewClusterView only; nil clusterOf disables it).
	// intra/inter mirror peers, split by whether a peer shares the owner's
	// cluster; each sub-list keeps its own position index for O(k) partial
	// Fisher-Yates draws.
	clusterOf   func(wire.NodeID) int
	selfCluster int
	intra       []wire.NodeID
	inter       []wire.NodeID
	intraIdx    posTable
	interIdx    posTable
}

// MaxPeerID bounds the ids a View indexes. Node ids are dense and the
// position tables are slices indexed by id, so — like aggregation's,
// misbehave's and netem's dense tables, which share the ceiling — one
// stray id must not be able to size a table: Add ignores ids outside
// [0, MaxPeerID), and StartNode rejects a peers file that lists one.
const MaxPeerID = 1 << 20

// posTable maps a peer id to its position in one peer list: a dense slice
// indexed by id holding position+1 (0 = absent), grown by put. Sampling
// rewrites two positions per Fisher-Yates swap, which is why this is not a
// map.
type posTable []int32

// pos returns id's position, or -1 if absent. Any id is safe to ask about.
func (t posTable) pos(id wire.NodeID) int {
	if uint(id) >= uint(len(t)) {
		return -1
	}
	return int(t[id]) - 1
}

func (t *posTable) put(id wire.NodeID, pos int) {
	if grow := int(id) + 1 - len(*t); grow > 0 {
		*t = append(*t, make(posTable, grow)...)
	}
	(*t)[id] = int32(pos + 1)
}

var _ Sampler = (*View)(nil)

// NewView builds a view for self containing every node in peers except self
// itself. Duplicate entries are ignored.
func NewView(self wire.NodeID, peers []wire.NodeID) *View {
	return NewClusterView(self, peers, nil)
}

// NewClusterView builds a full view whose peers are additionally
// partitioned by clusterOf (a pure node -> cluster-index function, e.g.
// topo.Topology.ClusterOf), enabling AppendSplit. Add and Remove keep the
// partition in sync, so churn and join waves work unchanged. A nil
// clusterOf builds the plain view.
func NewClusterView(self wire.NodeID, peers []wire.NodeID, clusterOf func(wire.NodeID) int) *View {
	v := &View{
		self:      self,
		peers:     make([]wire.NodeID, 0, len(peers)),
		index:     make(posTable, 0, len(peers)), // exact when ids are dense
		clusterOf: clusterOf,
	}
	if clusterOf != nil {
		v.selfCluster = clusterOf(self)
	}
	for _, p := range peers {
		v.Add(p)
	}
	return v
}

// PeerCount returns the number of peers currently in the view.
func (v *View) PeerCount() int { return len(v.peers) }

// Contains reports whether id is currently in the view.
func (v *View) Contains(id wire.NodeID) bool { return v.index.pos(id) >= 0 }

// Add inserts a peer. Adding self, an existing peer, or an id outside
// [0, MaxPeerID) is a no-op.
func (v *View) Add(id wire.NodeID) {
	if id == v.self || id < 0 || id >= MaxPeerID || v.Contains(id) {
		return
	}
	v.index.put(id, len(v.peers))
	v.peers = append(v.peers, id)
	if v.clusterOf != nil {
		if v.clusterOf(id) == v.selfCluster {
			v.intraIdx.put(id, len(v.intra))
			v.intra = append(v.intra, id)
		} else {
			v.interIdx.put(id, len(v.inter))
			v.inter = append(v.inter, id)
		}
	}
}

// Remove deletes a peer (e.g., on failure notification). Removing an absent
// peer is a no-op.
func (v *View) Remove(id wire.NodeID) {
	pos := v.index.pos(id)
	if pos < 0 {
		return
	}
	dropAt(&v.peers, v.index, pos)
	if v.clusterOf != nil {
		if p := v.intraIdx.pos(id); p >= 0 {
			dropAt(&v.intra, v.intraIdx, p)
		} else if p := v.interIdx.pos(id); p >= 0 {
			dropAt(&v.inter, v.interIdx, p)
		}
	}
}

// dropAt removes position p from a peer list by swapping in the last
// element.
func dropAt(list *[]wire.NodeID, idx posTable, p int) {
	l := *list
	last := len(l) - 1
	gone, moved := l[p], l[last]
	l[p] = moved
	idx[moved] = int32(p + 1)
	idx[gone] = 0
	*list = l[:last]
}

// AppendPeers implements Sampler with a partial Fisher–Yates shuffle: O(k)
// time, uniform without replacement.
func (v *View) AppendPeers(dst []wire.NodeID, rng *rand.Rand, k int) []wire.NodeID {
	n := len(v.peers)
	if k >= n {
		return append(dst, v.peers...)
	}
	if k <= 0 {
		return dst
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		if i != j {
			v.peers[i], v.peers[j] = v.peers[j], v.peers[i]
			v.index[v.peers[i]] = int32(i + 1)
			v.index[v.peers[j]] = int32(j + 1)
		}
	}
	return append(dst, v.peers[:k]...)
}

// AppendSplit implements Sampler. On a cluster view it draws up to kIntra
// distinct peers from the owner's cluster plus kInter from other clusters,
// uniformly without replacement within each side. Budget a side cannot fill
// spills to the other, so degenerate shapes fall back to a uniform draw: a
// single cluster serves everything from intra, a size-1 cluster (no intra
// peers) serves everything from inter. On a view built without
// NewClusterView the call is a plain uniform AppendPeers of kIntra+kInter.
func (v *View) AppendSplit(dst []wire.NodeID, rng *rand.Rand, kIntra, kInter int) []wire.NodeID {
	if v.clusterOf == nil {
		return v.AppendPeers(dst, rng, max(kIntra, 0)+max(kInter, 0))
	}
	return v.appendSplit(dst, rng, kIntra, kInter, nil)
}

// appendSplit is a cluster view's AppendSplit that never returns a peer
// skip (when non-nil) rejects: skipped peers are passed over inside the
// shuffle, so they cost the draw no budget.
func (v *View) appendSplit(dst []wire.NodeID, rng *rand.Rand, kIntra, kInter int, skip func(wire.NodeID) bool) []wire.NodeID {
	kIntra, kInter = max(kIntra, 0), max(kInter, 0)
	base := len(dst)
	dst, usedIntra := drawFrom(v.intra, v.intraIdx, dst, rng, kIntra, 0, skip)
	gotIntra := len(dst) - base
	mark := len(dst)
	// Inter budget plus whatever intra could not fill crosses the boundary.
	dst, _ = drawFrom(v.inter, v.interIdx, dst, rng, kInter+(kIntra-gotIntra), 0, skip)
	gotInter := len(dst) - mark
	// Unfilled inter budget spills back into the cluster, continuing the
	// partial shuffle past the peers already drawn or skipped.
	if want := kIntra + kInter - gotIntra - gotInter; want > 0 {
		dst, _ = drawFrom(v.intra, v.intraIdx, dst, rng, want, usedIntra, skip)
	}
	return dst
}

// drawFrom draws up to k peers skip does not reject from one cluster
// sub-list with a partial Fisher-Yates, continuing from window offset used
// (positions below it were already drawn or skipped this round). Returns the
// extended dst and the new offset.
func drawFrom(list []wire.NodeID, idx posTable, dst []wire.NodeID, rng *rand.Rand, k, used int, skip func(wire.NodeID) bool) ([]wire.NodeID, int) {
	n := len(list)
	for ; used < n && k > 0; used++ {
		j := used + rng.Intn(n-used)
		if j != used {
			list[used], list[j] = list[j], list[used]
			idx[list[used]] = int32(used + 1)
			idx[list[j]] = int32(j + 1)
		}
		if skip != nil && skip(list[used]) {
			continue
		}
		dst = append(dst, list[used])
		k--
	}
	return dst, used
}

// Directory is the bootstrap membership of a run: the id set from which
// per-node Views are built.
type Directory struct {
	ids []wire.NodeID
}

// NewDirectory creates a directory over n densely numbered nodes [0, n).
func NewDirectory(n int) *Directory {
	if n <= 0 {
		panic(fmt.Sprintf("membership: directory size %d", n))
	}
	d := &Directory{ids: make([]wire.NodeID, n)}
	for i := range d.ids {
		d.ids[i] = wire.NodeID(i)
	}
	return d
}

// Size returns the number of nodes in the directory.
func (d *Directory) Size() int { return len(d.ids) }

// IDs returns a copy of all node ids.
func (d *Directory) IDs() []wire.NodeID {
	out := make([]wire.NodeID, len(d.ids))
	copy(out, d.ids)
	return out
}

// ViewFor builds a full view for the given node.
func (d *Directory) ViewFor(self wire.NodeID) *View {
	return NewView(self, d.ids)
}
