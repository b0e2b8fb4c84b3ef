// Package tree implements the static-tree dissemination baseline that the
// paper's introduction measures against: packets are pushed from the source
// down a fixed k-ary tree with no repair protocol and no reconstruction.
//
// The paper reports that "our preliminary experiments revealed the
// difficulty of disseminating through a static tree without any
// reconstruction even among 30 nodes": every datagram lost at an interior
// node starves its whole subtree, and a low-capacity interior node must
// upload degree × stream-rate, so heterogeneity hits trees much harder than
// gossip. This package exists to reproduce that observation.
package tree

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/env"
	"repro/internal/wire"
)

// Order controls how nodes are arranged into tree levels.
type Order int

// Tree construction orders.
const (
	// ByID fills the tree in node-id order (arbitrary placement — the
	// naive deployment).
	ByID Order = iota + 1
	// ByCapacityDesc places high-capability nodes nearer the root, the
	// obvious manual optimization for heterogeneous networks.
	ByCapacityDesc
)

// Topology is a rooted k-ary dissemination tree.
type Topology struct {
	root     wire.NodeID
	children map[wire.NodeID][]wire.NodeID
	parent   map[wire.NodeID]wire.NodeID
	depth    map[wire.NodeID]int
}

// BuildKAry arranges the given nodes into a k-ary tree rooted at root.
// caps supplies per-node capabilities for ByCapacityDesc (indexed by node
// id; may be nil for ByID). Interior slots are filled level by level.
func BuildKAry(ids []wire.NodeID, root wire.NodeID, k int, order Order, caps []uint32) (*Topology, error) {
	if k <= 0 {
		return nil, fmt.Errorf("tree: degree %d must be positive", k)
	}
	rest := make([]wire.NodeID, 0, len(ids))
	seenRoot := false
	for _, id := range ids {
		if id == root {
			seenRoot = true
			continue
		}
		rest = append(rest, id)
	}
	if !seenRoot {
		return nil, fmt.Errorf("tree: root %d not among nodes", root)
	}
	switch order {
	case ByID:
		sort.Slice(rest, func(i, j int) bool { return rest[i] < rest[j] })
	case ByCapacityDesc:
		if caps == nil {
			return nil, fmt.Errorf("tree: ByCapacityDesc requires capabilities")
		}
		sort.Slice(rest, func(i, j int) bool {
			ci, cj := capOf(caps, rest[i]), capOf(caps, rest[j])
			if ci != cj {
				return ci > cj
			}
			return rest[i] < rest[j]
		})
	default:
		return nil, fmt.Errorf("tree: unknown order %d", order)
	}

	t := &Topology{
		root:     root,
		children: make(map[wire.NodeID][]wire.NodeID, len(ids)),
		parent:   make(map[wire.NodeID]wire.NodeID, len(ids)),
		depth:    map[wire.NodeID]int{root: 0},
	}
	// Breadth-first attachment: queue of nodes with free child slots.
	queue := []wire.NodeID{root}
	for _, id := range rest {
		for len(t.children[queue[0]]) >= k {
			queue = queue[1:]
		}
		p := queue[0]
		t.children[p] = append(t.children[p], id)
		t.parent[id] = p
		t.depth[id] = t.depth[p] + 1
		queue = append(queue, id)
	}
	return t, nil
}

func capOf(caps []uint32, id wire.NodeID) uint32 {
	if int(id) < len(caps) {
		return caps[id]
	}
	return 0
}

// Root returns the tree root.
func (t *Topology) Root() wire.NodeID { return t.root }

// Children returns the node's children (not a copy; do not modify).
func (t *Topology) Children(id wire.NodeID) []wire.NodeID { return t.children[id] }

// Parent returns a node's parent and whether it has one (the root does not).
func (t *Topology) Parent(id wire.NodeID) (wire.NodeID, bool) {
	p, ok := t.parent[id]
	return p, ok
}

// Depth returns a node's distance from the root.
func (t *Topology) Depth(id wire.NodeID) int { return t.depth[id] }

// MaxDepth returns the tree height.
func (t *Topology) MaxDepth() int {
	max := 0
	for _, d := range t.depth {
		if d > max {
			max = d
		}
	}
	return max
}

// SubtreeSize returns the number of nodes in the subtree rooted at id
// (including id).
func (t *Topology) SubtreeSize(id wire.NodeID) int {
	n := 1
	for _, c := range t.children[id] {
		n += t.SubtreeSize(c)
	}
	return n
}

// DeliverFunc mirrors core.DeliverFunc for tree nodes.
type DeliverFunc func(ev wire.Event, at time.Duration)

// Engine is one node's static-tree dissemination instance: deliver every
// incoming packet once and forward it to the node's children. No
// acknowledgements, no retransmission, no repair — the baseline the paper's
// introduction describes.
type Engine struct {
	topo      *Topology
	onDeliver DeliverFunc

	rt        env.Runtime
	delivered map[wire.PacketID]bool
	msg       wire.Serve // the one forward every delivery sends

	// Forwarded counts payload forwards to children.
	Forwarded int64
}

var _ env.Handler = (*Engine)(nil)

// NewEngine builds a tree engine for one node.
func NewEngine(topo *Topology, onDeliver DeliverFunc) *Engine {
	return &Engine{
		topo:      topo,
		onDeliver: onDeliver,
		delivered: make(map[wire.PacketID]bool),
	}
}

// Start implements env.Handler.
func (e *Engine) Start(rt env.Runtime) { e.rt = rt }

// Stop implements env.Handler.
func (e *Engine) Stop() {}

// Receive implements env.Handler: payloads arrive in [Serve] messages from
// the parent and cascade down.
func (e *Engine) Receive(_ wire.NodeID, m wire.Message) {
	serve, ok := m.(*wire.Serve)
	if !ok {
		return
	}
	for _, ev := range serve.Events {
		e.deliver(ev)
	}
}

// Publish injects a packet at the root (the source path).
func (e *Engine) Publish(ev wire.Event) { e.deliver(ev) }

func (e *Engine) deliver(ev wire.Event) {
	if e.delivered[ev.ID] {
		return
	}
	e.delivered[ev.ID] = true
	if e.onDeliver != nil {
		e.onDeliver(ev, e.rt.Now())
	}
	children := e.topo.Children(e.rt.ID())
	if len(children) == 0 {
		return
	}
	e.msg.Events = append(e.msg.Events[:0], ev)
	for _, c := range children {
		e.rt.Send(c, &e.msg)
		e.Forwarded++
	}
}
